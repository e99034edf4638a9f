"""Isospectral-flow engine and exact spin-family scattering matrices.

The transition-probability matrix of the k-level spin-family sweep is
assembled from spectral projectors of two commutant elements: the
asymptotic flow matrix ``V = v1 X + v2 Y + v3 Z`` and the asymptotic
Hamiltonian direction ``-Z``.  Entry convention throughout the package:
``S[i, j]`` is the probability of arriving in diabatic level ``i`` having
started in diabatic level ``j`` (levels ordered by descending sweep
slope), so S is doubly stochastic and columns are probability vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import AffineModel, build_spin_rep
from .numerics import OdeSettings, propagate_unitary

# entries this far below zero are roundoff and get clamped; anything
# lower indicates a real bug upstream
NEGATIVE_ENTRY_FLOOR = -1e-12


class NegativeProbabilityError(ArithmeticError):
    """A computed probability matrix has an entry below the roundoff floor.

    Not a ``ValueError``: the input was valid and a result broke an
    invariant.
    """


@dataclass(frozen=True)
class BlochVector:
    """Coefficients of a flow matrix in the (X, Y, Z) spin basis."""

    v1: float
    v2: float
    v3: float

    def as_array(self):
        return np.array([self.v1, self.v2, self.v3])

    @property
    def norm(self):
        return float(np.linalg.norm(self.as_array()))


def survival_weight(delta: float, a: float) -> float:
    """The sweep survival probability exp(-pi delta^2 / a)."""
    if not a > 0:
        raise ValueError(f"sweep rate a must be positive, got {a}")
    return math.exp(-math.pi * delta * delta / a)


def lz_closed_form(delta: float, a: float) -> np.ndarray:
    """Two-level scattering matrix [[u, v], [v, u]] with u = exp(-pi d^2/a)."""
    u = survival_weight(delta, a)
    v = 1.0 - u
    return np.array([[u, v], [v, u]])


def asymptotic_v3(delta: float, a: float) -> float:
    """Late-time v3 modulus target, 1 - 2 exp(-pi delta^2 / a)."""
    return 1.0 - 2.0 * survival_weight(delta, a)


def evolve_lax(model: AffineModel, v0, t0: float, t1: float, settings=None):
    """Integrate i dV/dt = [V, H(t)] for a spin-family model.

    ``v0`` are the (v1, v2, v3) coefficients of V(t0) in the model's spin
    basis.  Returns ``(V(t1), BlochVector)``.  The update is a unitary
    conjugation at every step, so the spectrum of V is preserved exactly.
    """
    if model.family not in ("spin", "lz2", "adjoint3"):
        raise ValueError(f"evolve_lax needs a spin-family model, got {model.family!r}")
    if settings is None:
        settings = OdeSettings()
    rep = build_spin_rep(model.k)
    gens = [rep.x, rep.y, rep.z]
    if model.spin_basis_permutation is not None:
        p = list(model.spin_basis_permutation)
        gens = [g[np.ix_(p, p)] for g in gens]
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (3,):
        raise ValueError("v0 must be three Bloch coefficients")
    vmat = sum(c * g for c, g in zip(v0, gens))
    # i dV/dt = [V, H]  <=>  V(t) = W V(t0) W^dag  with  i dW/dt = -H W
    w = propagate_unitary((-model.a_of(), -model.b), t0, t1, settings)
    v_out = w @ vmat @ w.conj().T
    norms = [float(np.trace(g @ g).real) for g in gens]
    coeffs = [float(np.trace(v_out @ g).real) / n for g, n in zip(gens, norms)]
    return v_out, BlochVector(*coeffs)


def lagrange_projector(m, ladder, index: int) -> np.ndarray:
    """Spectral projector of ``m`` onto the eigenvalue ``ladder[index]``.

    Built as the interpolation product  prod_{a != i} (m - l_a) / (l_i - l_a),
    which requires ``m`` normal with spectrum equal to the ladder (within
    1e-8) and pairwise-distinct ladder values.
    """
    m = np.asarray(m, dtype=complex)
    ladder = np.asarray(ladder, dtype=float)
    if not 0 <= index < ladder.size:
        raise IndexError(f"index {index} outside ladder of length {ladder.size}")
    gaps = np.abs(ladder[:, None] - ladder[None, :])[~np.eye(ladder.size, dtype=bool)]
    if gaps.size and gaps.min() < 1e-12:
        raise ValueError("ladder values must be pairwise distinct")
    spectrum = np.sort(np.linalg.eigvals(m).real)
    target = np.sort(ladder)
    mismatch = float(np.abs(spectrum - target).max())
    if mismatch > 1e-8:
        raise ValueError(
            f"spectrum does not match ladder: max deviation {mismatch:.3e}"
        )
    n = m.shape[0]
    proj = np.eye(n, dtype=complex)
    li = ladder[index]
    for a, la in enumerate(ladder):
        if a == index:
            continue
        proj = proj @ (m - la * np.eye(n)) / (li - la)
    return proj


def spin_ladder(k: int) -> np.ndarray:
    """Ascending eigenvalue ladder -(k-1)/2 ... (k-1)/2."""
    j = 0.5 * (k - 1)
    return np.array([-j + i for i in range(k)])


def smatrix_from_bloch(k: int, v) -> np.ndarray:
    """Spin-family scattering matrix for a given asymptotic flow direction.

    Only the direction of ``v`` matters.  Rows and columns are ordered by
    descending diabatic slope.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("flow vector must be nonzero")
    v = v / norm
    rep = build_spin_rep(k)
    vmat = v[0] * rep.x + v[1] * rep.y + v[2] * rep.z
    ladder = spin_ladder(k)
    proj_v = [lagrange_projector(vmat, ladder, i) for i in range(k)]
    proj_z = [lagrange_projector(-rep.z, ladder, i) for i in range(k)]
    s = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            s[i, j] = np.trace(proj_v[i] @ proj_z[j]).real
    return clamp_probabilities(s)


def smatrix_spin(k: int, delta: float, a: float) -> np.ndarray:
    """Exact k-level spin-family scattering matrix for sweep (delta, a)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    v3 = asymptotic_v3(delta, a)
    v1 = math.sqrt(max(0.0, 1.0 - v3 * v3))
    return smatrix_from_bloch(k, (v1, 0.0, v3))


def first_row_element(n: int, delta: float, a: float, j: int) -> float:
    """Closed form for the top-row entries of the k = n spin matrix.

    Binomial pattern C(n-1, j-1) u^(n-j) v^(j-1) with u the two-level
    survival weight; matches row 1 of :func:`smatrix_spin`.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= j <= n:
        raise IndexError(f"column {j} outside 1..{n}")
    u = survival_weight(delta, a)
    v = 1.0 - u
    return math.comb(n - 1, j - 1) * u ** (n - j) * v ** (j - 1)


def clamp_probabilities(s: np.ndarray) -> np.ndarray:
    """Zero out roundoff-negative entries; reject genuinely negative ones."""
    s = np.asarray(s, dtype=float)
    low = float(s.min())
    if low < NEGATIVE_ENTRY_FLOOR:
        raise NegativeProbabilityError(f"probability entry {low:.3e} below clamp floor")
    return np.where(s < 0.0, 0.0, s)


def stochastic_defect(s: np.ndarray) -> float:
    """Largest deviation of any row or column sum from one."""
    s = np.asarray(s, dtype=float)
    rows = np.abs(s.sum(axis=1) - 1.0).max()
    cols = np.abs(s.sum(axis=0) - 1.0).max()
    return float(max(rows, cols))

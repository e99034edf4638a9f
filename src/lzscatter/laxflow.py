"""Isospectral-flow engine and exact spin-family scattering matrices.

The asymptotic flow matrix of the k-level spin-family sweep is the
rotated ``-Z`` with ``v3 = 1 - 2u``, so the transition-probability matrix
is one rotation: ``S = |d^j(beta)|^2`` entrywise, the Wigner small-d matrix
of spin j = (k-1)/2 at ``cos(beta) = 2u - 1`` (Majorana's solution), with
u the two-level survival weight.  ``rotation`` returns the amplitude
``exp(-i beta J)`` of any image J of ``J_x`` from one ``eigh`` of J at any
k; ``crossings`` multiplies these amplitudes event by event.  Entry
convention throughout the package:
``S[i, j]`` is the probability of arriving in diabatic level ``i`` having
started in diabatic level ``j`` (levels ordered by descending sweep
slope), so S is doubly stochastic and columns are probability vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import SU2, AffineModel, _spin_sym, lift, unlift
from .numerics import propagate_unitary

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
    """Integrate i dV/dt = [V, H(t)] for a spin-family model (a lift of lz2).

    ``v0`` are the (v1, v2, v3) coefficients of V(t0) in the model's own
    su(2) generators ``G_a = lift(J_a, model.rep)``.  Returns
    ``(V(t1), BlochVector)``.

    ``V(t1) = W_k V(t0) W_k^dag`` with ``i dW_k/dt = -H W_k``, and
    ``H = 2 (a t rho(Z_2) + delta rho(X_2))`` is the image of the same
    element of su(2) in every model, so ``W_k`` is the image of the 2 x 2
    propagator W of the preimage ``unlift(-(a0, b), model.rep)`` of the
    model's own pair.  Only W is propagated.  Conjugation by W rotates the
    spin generators, ``W J_b W^dag = sum_a R_ab J_a`` with
    ``R_ab = 2 tr(J_a W J_b W^dag)``, by the same rotation R in every
    representation, so the Bloch vector is ``R v0`` and
    ``V(t1) = sum_a (R v0)_a G_a``.  The cost is one 2 x 2 propagation at
    any k, and the spectrum of V is that of V(t0) to roundoff.  A
    non-finite ``v0`` raises ``ValueError``, and so does a model whose pair
    has no 2 x 2 preimage (a lift of bowtie3; a spin copy with ``rep=None``).
    """
    pair = unlift(-np.stack((model.a0, model.b)), model.rep)
    if pair is None or pair.shape[-1] != 2:
        raise ValueError(f"evolve_lax needs a spin-family model, got {model.family!r}")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (3,):
        raise ValueError("v0 must be three Bloch coefficients")
    if not np.isfinite(v0).all():
        raise ValueError(f"v0 must be finite, got {v0.tolist()}")
    w = propagate_unitary(tuple(pair), t0, t1, settings)
    rot = 2.0 * np.einsum("aij,bji->ab", SU2, w @ SU2 @ w.conj().T).real
    coeffs = rot @ v0
    return np.tensordot(coeffs, lift(SU2, model.rep), axes=1), BlochVector(*(float(c) for c in coeffs))


def spin_ladder(k: int) -> np.ndarray:
    """Ascending eigenvalue ladder -(k-1)/2 ... (k-1)/2."""
    j = 0.5 * (k - 1)
    return np.array([-j + i for i in range(k)])


def smatrix_spin(k: int, delta: float, a: float) -> np.ndarray:
    """Exact k-level spin-family scattering matrix for sweep (delta, a).

    ``S = |d^j(beta)|^2`` entrywise with ``cos(beta) = 2u - 1`` (module
    docstring); one rotation, so cost and roundoff stay flat in k.  Rows
    and columns are ordered by descending diabatic slope.  A k that is not
    an integer >= 2 raises ``ValueError``.
    """
    beta = math.acos(2.0 * survival_weight(delta, a) - 1.0)
    # Y = R X R^dag with R diagonal, so |exp(-i beta Y)| = |exp(-i beta X)|;
    # a real eigh of X is more accurate than a complex eigh of Y
    return np.abs(rotation(lift(SU2[0], _spin_sym(k)).real, beta)) ** 2


def rotation(jx: np.ndarray, beta: float) -> np.ndarray:
    """``exp(-i beta J)`` for the Hermitian image J of an su(2) generator.

    One ``eigh`` of J, with its eigenvalues rounded to the half-integer
    ladder that J has in every representation of su(2), so the rotation
    phases are exact and only the eigenvectors carry roundoff; more
    accurate than ``numerics._expmi``.  A zero J or beta gives I exactly.
    """
    if beta == 0.0:
        return np.eye(len(jx))
    w, vecs = np.linalg.eigh(jx)
    return (vecs * np.exp(-1j * beta * (np.round(2.0 * w) / 2.0))) @ vecs.conj().T


def first_row_element(n: int, delta: float, a: float, j: int) -> float:
    """Closed form for the top-row entries of the k = n spin matrix.

    Binomial pattern C(n-1, j-1) u^(n-j) v^(j-1) with u the two-level
    survival weight: the top row of the small-d matrix,
    |d^j_{j,m}(beta)|^2 with cos(beta/2)^2 = u.  An independent check of
    row 1 of :func:`smatrix_spin` at any n.
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

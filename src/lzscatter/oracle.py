"""Ground-truth numerical engine: full propagation, probabilities, spectra.

The oracle propagates the complete time-ordered evolution of a model over
a finite horizon [-T, T], reads transition probabilities off the squared
propagator entries (``S[i, j] = |U_ij|^2`` = probability of ending in
level i having started in level j), and quantifies finite-horizon error
by re-running at shorter horizons.  Phases oscillate without converging
as T grows, so only probabilities are compared or extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laxflow import clamp_probabilities
from .models import AffineModel
from .numerics import propagate_unitary, unitarity_defect

# entrywise spread across horizons beyond which a result is flagged
CONVERGENCE_SPREAD_LIMIT = 0.1


@dataclass(frozen=True)
class OracleResult:
    s_num: np.ndarray
    horizon: float
    error_estimate: float
    unitarity_defect: float
    converged: bool


def default_horizon(model: AffineModel, eps=None) -> float:
    """Horizon heuristic 300 * max(1, |eps|, delta^2 / min nonzero slope)."""
    if eps is None:
        eps = model.eps or 0.0
    deltas = np.atleast_1d(np.asarray(model.delta, dtype=float))
    dmax = float(np.abs(deltas).max())
    slopes = np.abs(np.diag(model.b).real)
    slopes = slopes[slopes > 0]
    smin = float(slopes.min()) if slopes.size else 1.0
    return 300.0 * max(1.0, abs(float(eps)), dmax * dmax / smin)


def _horizon(model, eps, t_final):
    if t_final is None:
        t_final = default_horizon(model, eps)
    if not 0 < t_final < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {t_final}")
    return t_final


def propagate(model: AffineModel, eps=None, t_final=None, settings=None) -> np.ndarray:
    """Unitary U(T, -T) whose columns solve i du/dt = H(t, eps) u."""
    t_final = _horizon(model, eps, t_final)
    return propagate_unitary((model.a_of(eps), model.b), -t_final, t_final, settings)


def numeric_smatrix(model: AffineModel, eps=None, t_final=None, settings=None) -> OracleResult:
    """Transition probabilities with a finite-horizon error estimate.

    ``U(T, -T) = F(T, 0) G(T, 0)^dag`` with F the propagator of
    ``H = A + t B`` and G that of the mirror ``-A + t B`` (``G(s, 0)`` is
    ``U(-s, 0)``).  F and G are propagated outward from 0 as one stacked
    pair over the shells [0, T/2], [T/2, T/sqrt(2)] and [T/sqrt(2), T],
    and ``U = F G^dag`` is read off at each of the three horizons, so the
    three propagators cost one lockstep sweep of [0, T].  The entrywise
    spread of the three probability matrices is the error estimate.  A
    spread above 0.1 flags the result as non-converged (it is still
    returned).
    """
    t_final = _horizon(model, eps, t_final)
    a = model.a_of(eps)
    mirrored = (np.stack((a, -a)), np.stack((model.b, model.b)))
    f = g = np.eye(model.k, dtype=complex)
    mats = []
    defect = 0.0
    inner = 0.0
    for outer in (0.5 * t_final, t_final / np.sqrt(2.0), t_final):
        shell_f, shell_g = propagate_unitary(mirrored, inner, outer, settings)
        f, g = shell_f @ f, shell_g @ g
        u = f @ g.conj().T
        defect = max(defect, unitarity_defect(u))
        mats.append(np.abs(u) ** 2)
        inner = outer
    spread = float(np.max(np.abs(mats[0] - mats[2])))
    spread = max(spread, float(np.max(np.abs(mats[1] - mats[2]))))
    return OracleResult(
        s_num=clamp_probabilities(mats[-1]),
        horizon=float(t_final),
        error_estimate=spread,
        unitarity_defect=float(defect),
        converged=spread <= CONVERGENCE_SPREAD_LIMIT,
    )


def extrapolate(results):
    """Entrywise 1/T fit of probability matrices; returns (S_inf, radius).

    ``results`` is a list of (T, S) pairs with at least three strictly
    increasing horizons.  The confidence radius is the largest residual of
    the per-entry linear fits in 1/T.  If the sequence does not converge
    monotonically toward the largest horizon, the largest-T matrix is
    returned with the radius widened to the observed spread.
    """
    if len(results) < 3:
        raise ValueError("need at least three horizons")
    horizons = np.array([float(t) for t, _ in results])
    if not np.all(np.diff(horizons) > 0):
        raise ValueError("horizons must be strictly increasing")
    mats = np.array([np.asarray(s, dtype=float) for _, s in results])
    last = mats[-1]
    dists = [float(np.abs(m - last).max()) for m in mats[:-1]]
    monotone = all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))
    if not monotone:
        spread = float(np.max(np.abs(mats - last)))
        return last.copy(), spread
    # least squares for S(T) = S_inf + c / T, entrywise
    x = 1.0 / horizons
    design = np.column_stack([np.ones_like(x), x])
    flat = mats.reshape(len(results), -1)
    coef, *_ = np.linalg.lstsq(design, flat, rcond=None)
    fitted = design @ coef
    radius = float(np.abs(fitted - flat).max())
    s_inf = coef[0].reshape(last.shape)
    return s_inf, radius


def adiabatic_spectrum(model: AffineModel, t_grid, eps=None):
    """Instantaneous eigenvalue curves tracked continuously across t.

    Curves are matched between adjacent grid points by maximal eigenvector
    overlap (optimal assignment), not by sorting, so they stay smooth
    through avoided crossings.  Points where the best overlap is ambiguous
    (squared overlap below 1/2, e.g. an exact degeneracy) fall back to
    sorted order and are flagged.  The eigendecompositions of all grid
    points are one stacked ``eigh`` call.

    Returns ``(curves, flags)`` with ``curves`` of shape (len(t_grid), k),
    column c holding the c-th tracked curve, and ``flags`` a boolean array
    marking fallback points.
    """
    from scipy.optimize import linear_sum_assignment

    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t grid must be a nonempty 1-d array")
    k = model.k
    curves = np.empty((t_grid.size, k))
    flags = np.zeros(t_grid.size, dtype=bool)
    prev_vecs = None
    values, vectors = np.linalg.eigh(np.stack([model.hamiltonian(t, eps) for t in t_grid]))
    for n, (w, vecs) in enumerate(zip(values, vectors)):
        if prev_vecs is None:
            order = np.arange(k)
        else:
            overlap = np.abs(prev_vecs.conj().T @ vecs) ** 2
            rows, cols = linear_sum_assignment(-overlap)
            order = np.empty(k, dtype=int)
            order[rows] = cols
            if overlap[rows, cols].min() < 0.5:
                order = np.arange(k)
                flags[n] = True
        curves[n] = w[order]
        prev_vecs = vecs[:, order]
    return curves, flags


def spectrum_csv_lines(t_grid, curves):
    """CSV lines ``t,e1,...,ek`` for a tracked spectrum."""
    k = curves.shape[1]
    lines = ["t," + ",".join(f"e{i + 1}" for i in range(k))]
    for t, row in zip(t_grid, curves):
        lines.append(",".join(repr(float(x)) for x in (t, *row)))
    return lines

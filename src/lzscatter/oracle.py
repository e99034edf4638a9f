"""Ground-truth numerical engine: full propagation, probabilities, spectra.

The oracle propagates the complete time-ordered evolution of a model over
a finite horizon [-T, T], reads transition probabilities off the squared
propagator entries (``S[i, j] = |U_ij|^2`` = probability of ending in
level i having started in level j), and quantifies finite-horizon error
by re-running at shorter horizons.  Phases oscillate without converging
as T grows, so only probabilities are compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laxflow import clamp_probabilities
from .models import AffineModel, lift_unitary, unlift
from .numerics import EndTimes, propagate_unitary, unitarity_defect

# entrywise spread across horizons beyond which a result is flagged
CONVERGENCE_SPREAD_LIMIT = 0.1


@dataclass(frozen=True)
class OracleResult:
    s_num: np.ndarray
    horizon: float
    error_estimate: float
    unitarity_defect: float
    converged: bool


def default_horizon(model: AffineModel) -> float:
    """Horizon heuristic 300 * max(1, |eps|, delta^2 / min nonzero slope)."""
    deltas = np.atleast_1d(np.asarray(model.delta, dtype=float))
    dmax = float(np.abs(deltas).max())
    slopes = np.abs(np.diag(model.b).real)
    slopes = slopes[slopes > 0]
    smin = float(slopes.min()) if slopes.size else 1.0
    return 300.0 * max(1.0, abs(model.eps or 0.0), dmax * dmax / smin)


def _horizon(model, t_final):
    if t_final is None:
        t_final = default_horizon(model)
    if not 0 < t_final < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {t_final}")
    return t_final


def propagate(model: AffineModel, t_final=None, settings=None) -> np.ndarray:
    """Unitary U(T, -T) whose columns solve i du/dt = H(t) u.

    Always the model's own k x k pair, lifted or not: the direct reference
    for ``numeric_smatrix``'s lifted route.
    """
    t_final = _horizon(model, t_final)
    return propagate_unitary((model.a_of(), model.b), -t_final, t_final, settings)


def numeric_smatrix(model: AffineModel, t_final=None, settings=None) -> OracleResult:
    """Transition probabilities with a finite-horizon error estimate.

    ``U(T, -T) = F(T, 0) G(T, 0)^dag`` with F the propagator of
    ``H = A + t B`` and G that of the mirror ``-A + t B`` (``G(s, 0)`` is
    ``U(-s, 0)``).  F and G are propagated outward from 0 as one stacked
    pair in one adaptive sweep of [0, T] that passes through the horizons
    T/2, T/sqrt(2) and T (``propagate_unitary`` with three end times), and
    ``U = F G^dag`` is read off at each of them.  For a chiral pair (every
    catalog base) the stack steps F alone and forms G as ``P F P^T``, P
    the signed level permutation that maps ``(A, B)`` to ``(-A, B)``
    (``numerics`` module docstring), matched once per solve over the whole
    span.  The entrywise
    spread of the three probability matrices is the error estimate.  A
    spread above 0.1 flags the result as non-converged (it is still
    returned).

    A lifted model (spin, adjoint3, su3six, su3adj8) propagates the base
    pair of its own coefficients instead, ``unlift((A, B), model.rep)``,
    2 x 2 for a lift of lz2 and 3 x 3 for one of bowtie3, and reads
    ``U = Pi(F G^dag)`` with ``Pi = models.lift_unitary`` the group
    representation whose derivative is the lift: the model's propagator up
    to the base run's tolerance, which the step control and error estimate
    see.  A model whose pair is not the image ``rep`` names propagates it.
    """
    t_final = _horizon(model, t_final)
    pair = np.stack((model.a_of(), model.b))
    base = unlift(pair, model.rep)
    (a, b), rep = (pair, None) if base is None else (base, model.rep)
    mirrored = (np.stack((a, -a)), np.stack((b, b)))
    horizons = EndTimes((0.5 * t_final, t_final / np.sqrt(2.0), t_final))
    mats = []
    defect = 0.0
    for f, g in propagate_unitary(mirrored, 0.0, horizons, settings):
        u = lift_unitary(f @ g.conj().T, rep)
        defect = max(defect, unitarity_defect(u))
        mats.append(np.abs(u) ** 2)
    spread = float(np.max(np.abs(mats[0] - mats[2])))
    spread = max(spread, float(np.max(np.abs(mats[1] - mats[2]))))
    return OracleResult(
        s_num=clamp_probabilities(mats[-1]),
        horizon=float(t_final),
        error_estimate=spread,
        unitarity_defect=float(defect),
        converged=spread <= CONVERGENCE_SPREAD_LIMIT,
    )


def adiabatic_spectrum(model: AffineModel, t_grid):
    """Instantaneous eigenvalue curves tracked continuously across t.

    Curves are matched between adjacent grid points by maximal eigenvector
    overlap, not by sorting, so they stay smooth through avoided crossings.
    The squared overlaps ``|<v_i|w_j>|^2`` form a unistochastic matrix, so
    an entry above 1/2 is the unique maximum of its row and of its column,
    and a permutation of such entries is the optimal assignment: each
    curve takes its row's argmax.  Points where that is ambiguous (a chosen
    squared overlap below 1/2, e.g. an exact degeneracy, or two curves
    choosing one eigenvector) fall back to sorted order and are flagged.
    The eigendecompositions of all grid points are one stacked ``eigh``
    call.

    Returns ``(curves, flags)`` with ``curves`` of shape (len(t_grid), k),
    column c holding the c-th tracked curve, and ``flags`` a boolean array
    marking fallback points.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t grid must be a nonempty 1-d array")
    k = model.k
    rows = np.arange(k)
    curves = np.empty((t_grid.size, k))
    flags = np.zeros(t_grid.size, dtype=bool)
    prev_vecs = None
    values, vectors = np.linalg.eigh(np.stack([model.hamiltonian(t) for t in t_grid]))
    for n, (w, vecs) in enumerate(zip(values, vectors)):
        order = rows
        if prev_vecs is not None:
            overlap = np.abs(prev_vecs.conj().T @ vecs) ** 2
            best = overlap.argmax(axis=1)
            if overlap[rows, best].min() >= 0.5 and np.unique(best).size == k:
                order = best
            else:
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

"""Zero-curvature verification for (H, E) model pairs.

For a valid pair the combination  dH/deps - dE/dt + i [E, H]  vanishes
identically.  The eps-derivative of H is available exactly (every catalog
A is affine in eps, so dH/deps is its coefficient a1), and dE/dt is the
constant slope part E1, so the verifier doubles as a typo detector: a single wrong entry in either
matrix shows up as a residual bounded away from zero.  A central
finite-difference route for dH/deps is kept as an independent cross-check
of the exact derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import AffineModel
from .numerics import commutator

PASS_THRESHOLD = 1e-10

DEFAULT_T_GRID = (-10.0, -1.0, 0.0, 1.0, 10.0)
DEFAULT_EPS_GRID = (-3.0, -1.0, -0.5, 0.5, 1.0, 3.0)


@dataclass(frozen=True)
class CurvatureReport:
    family: str
    max_residual: float
    worst_t: float
    worst_eps: float
    residual_matrix: np.ndarray
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "max_residual": self.max_residual,
            "worst_point": {"t": self.worst_t, "eps": self.worst_eps},
            "pass": bool(self.passed),
        }


def curvature_residual(model: AffineModel, t: float, eps: float, delta=None) -> np.ndarray:
    """Residual matrix dH/deps - E1 + i [E, H] at one (t, eps) point.

    With ``delta=None`` the exact eps-derivative of A is used; a positive
    ``delta`` switches to a central difference of that step, which must
    satisfy 0 < delta <= 1e-3 |eps|.
    """
    if not model.has_partner:
        # let partner() raise the canonical error
        model.partner(t, eps)
    if delta is None:
        dh = model.da_of(float(eps))
    else:
        delta = float(delta)
        if not 0.0 < delta <= 1e-3 * abs(eps):
            raise ValueError(
                f"finite-difference step must lie in (0, 1e-3 |eps|], got {delta}"
            )
        dh = (model.a_of(eps + delta) - model.a_of(eps - delta)) / (2.0 * delta)
    h = model.hamiltonian(t, eps)
    e = model.partner(t, eps)
    return dh - model.e1 + 1j * commutator(e, h)


def verify_pair(model: AffineModel, t_grid=None, eps_grid=None) -> CurvatureReport:
    """Scan the residual over a (t, eps) grid; PASS iff max <= 1e-10.

    Grid points at partner poles (eps = 0) are rejected rather than
    silently skipped.
    """
    t_grid = DEFAULT_T_GRID if t_grid is None else tuple(float(v) for v in t_grid)
    eps_grid = DEFAULT_EPS_GRID if eps_grid is None else tuple(float(v) for v in eps_grid)
    if any(e == 0.0 for e in eps_grid):
        raise ValueError("eps grid must avoid the partner pole at eps = 0")
    worst = -1.0
    worst_t = worst_eps = 0.0
    worst_matrix = None
    for e in eps_grid:
        for t in t_grid:
            r = curvature_residual(model, t, e)
            size = float(np.abs(r).max())
            if size > worst:
                worst, worst_t, worst_eps, worst_matrix = size, t, e, r
    return CurvatureReport(
        family=model.family,
        max_residual=worst,
        worst_t=worst_t,
        worst_eps=worst_eps,
        residual_matrix=worst_matrix,
        passed=worst <= PASS_THRESHOLD,
    )

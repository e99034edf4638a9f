"""Zero-curvature verification for (H, E) model pairs.

For a valid pair the combination  dH/deps - dE/dt + i [E, H]  vanishes
identically.  With ``H = a0 + eps a1 + t b`` and
``E = e_inv / eps + e_0 + eps e_eps + t e1`` the residual is a polynomial
in t and a Laurent polynomial in eps with exactly eight coefficient
matrices, one per monomial; it vanishes for every (t, eps)
iff all eight do.  ``verify_pair`` decides the identity from those
coefficients, so the verdict evaluates no (t, eps) point and holds
everywhere, not just on a sample.  A single wrong entry in either matrix
shows up as a coefficient bounded away from zero.  ``curvature_residual``
evaluates the residual pointwise from H and E as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import AffineModel, MissingPartnerError
from .numerics import commutator

PASS_THRESHOLD = 1e-10


@dataclass(frozen=True)
class CurvatureReport:
    """Verdict of ``verify_pair``: the largest coefficient entry and its term."""

    family: str
    max_residual: float
    worst_term: str
    residual_matrix: np.ndarray
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "max_residual": self.max_residual,
            "worst_term": self.worst_term,
            "pass": bool(self.passed),
        }


def curvature_terms(model: AffineModel) -> dict:
    """Coefficient matrix of each residual monomial, keyed by the monomial.

    Keys: ``"1/eps", "1", "eps", "eps^2", "t/eps", "t", "t eps", "t^2"``.
    """
    if not model.has_partner:
        raise MissingPartnerError(f"family {model.family!r} has no partner E")
    m, c = model, commutator
    return {
        "1/eps": 1j * c(m.e_inv, m.a0),
        "1": m.a1 - m.e1 + 1j * (c(m.e_inv, m.a1) + c(m.e_0, m.a0)),
        "eps": 1j * (c(m.e_0, m.a1) + c(m.e_eps, m.a0)),
        "eps^2": 1j * c(m.e_eps, m.a1),
        "t/eps": 1j * c(m.e_inv, m.b),
        "t": 1j * (c(m.e_0, m.b) + c(m.e1, m.a0)),
        "t eps": 1j * (c(m.e_eps, m.b) + c(m.e1, m.a1)),
        "t^2": 1j * c(m.e1, m.b),
    }


def curvature_residual(model: AffineModel, t: float, eps: float) -> np.ndarray:
    """Residual matrix dH/deps - dE/dt + i [E, H] at one (t, eps) point."""
    e = model.partner(t, eps)
    h = model.hamiltonian(t, eps)
    return model.a1 - model.e1 + 1j * commutator(e, h)


def verify_pair(model: AffineModel) -> CurvatureReport:
    """Exact verdict: PASS iff every residual coefficient is <= 1e-10 entrywise."""
    terms = curvature_terms(model)
    sizes = {name: float(np.abs(r).max()) for name, r in terms.items()}
    worst = max(sizes, key=sizes.get)
    return CurvatureReport(
        family=model.family,
        max_residual=sizes[worst],
        worst_term=worst,
        residual_matrix=terms[worst],
        passed=sizes[worst] <= PASS_THRESHOLD,
    )

"""Catalog of linear-sweep Hamiltonian families ``H(t, eps) = A(eps) + t B``.

Each family fixes a Hermitian ``A`` (possibly depending on a flat-level
splitting parameter ``eps``), a real diagonal slope matrix ``B``, and,
where one exists, a commuting-flow partner ``E(t, eps) = E0(eps) + t E1``
used by the zero-curvature verifier and the path-deformation engine.

Every family is stored as constant coefficient matrices of one Laurent
layout.  This module builds and evaluates it, and
``zerocurv.curvature_terms`` expands the zero-curvature residual in the
same coefficients:

    A(eps)  = a0 + eps a1
    E0(eps) = e_inv / eps + e_0 + eps e_eps

with constant ``b`` and ``e1``.  The exact eps-derivatives follow from the
coefficients (``dA/deps = a1``, ``dE0/deps = -e_inv / eps^2 + e_eps``), so
no family carries hand-written evaluation or derivative code.

Families
--------
lz2       two levels, slopes +-a, coupling delta
spin      k levels built from the spin-(k-1)/2 ladder matrices,
          H = 2 (a t Z_k + delta X_k); k = 2 reproduces lz2
adjoint3  the 3-level member of the spin family in the basis that puts
          the two sweeping levels first (a permutation of spin k=3)
bowtie3   two flat levels at +-eps coupled through one sweeping level
bowtieN   k-2 sweeping levels, each coupled to both flat levels
su3six    6-level bow-tie companion with slopes (0, 0, 0, a, a, 2a)
su3adj8   8-level bow-tie companion with slopes (0, 0, 0, 0, -b, -b, b, b)
          and imaginary couplings

All parameters are plain reals in units with hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

FAMILIES = ("lz2", "spin", "adjoint3", "bowtie3", "bowtieN", "su3six", "su3adj8")
# the families with a flat-level splitting eps and a flow partner E
PARTNERED_FAMILIES = ("bowtie3", "bowtieN", "su3six", "su3adj8")

_SQRT2 = math.sqrt(2.0)
_SQRT32 = math.sqrt(1.5)


class UnknownFamilyError(ValueError):
    """Family tag not in the catalog."""


class MissingPartnerError(ValueError):
    """The family defines no flow partner E."""


class SingularPartnerError(ValueError):
    """The partner has 1/eps entries and eps is at the pole."""


@dataclass(frozen=True)
class SpinRep:
    """Spin matrices (X, Y, Z) for dimension k, basis ordered by descending m."""

    k: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


def ladder_amplitude(k: int, m: float) -> float:
    """Raising amplitude attached to the (m-1 -> m) transition."""
    j = 0.5 * (k - 1)
    return math.sqrt((j + m) * (j - m + 1.0))


def build_spin_rep(k: int) -> SpinRep:
    """Construct the k-dimensional spin matrices from ladder amplitudes.

    Basis index i holds m = (k-1)/2 - i, so Z = diag((k-1)/2, ..., -(k-1)/2).
    """
    if k < 2:
        raise ValueError(f"spin representation needs k >= 2, got {k}")
    j = 0.5 * (k - 1)
    ms = [j - i for i in range(k)]
    z = np.diag(ms).astype(complex)
    t_plus = np.zeros((k, k), dtype=complex)
    for i, m in enumerate(ms):
        if i + 1 < k:
            # column i+1 holds m-1; raising lands on row i
            t_plus[i, i + 1] = ladder_amplitude(k, m)
    t_minus = t_plus.conj().T
    x = 0.5 * (t_plus + t_minus)
    y = -0.5j * (t_plus - t_minus)
    return SpinRep(k=k, x=x, y=y, z=z)


@dataclass(frozen=True)
class AffineModel:
    """One catalog instance as coefficient matrices.

    ``H(t, eps) = a0 + eps a1 + t b``; when ``e1`` is set the family has the
    partner ``E(t, eps) = e_inv / eps + e_0 + eps e_eps + t e1``.  ``eps``
    stores the nominal parameter value used when a call does not override
    it.
    """

    family: str
    k: int
    delta: object
    slope: object
    eps: Optional[float]
    a0: np.ndarray
    a1: np.ndarray
    b: np.ndarray
    e_inv: Optional[np.ndarray] = None
    e_0: Optional[np.ndarray] = None
    e_eps: Optional[np.ndarray] = None
    e1: Optional[np.ndarray] = None
    spin_basis_permutation: Optional[tuple] = None

    @property
    def has_partner(self) -> bool:
        return self.e1 is not None

    def _eps_value(self, eps):
        if eps is not None:
            return float(eps)
        if self.eps is not None:
            return float(self.eps)
        return 0.0

    def a_of(self, eps: Optional[float] = None) -> np.ndarray:
        e = self._eps_value(eps)
        # eps-free families skip the a1 term on the propagation hot path
        return self.a0 + e * self.a1 if e else self.a0.copy()

    def de0_of(self, eps: Optional[float] = None) -> np.ndarray:
        e = self._eps_value(eps)
        return self.e_eps - self.e_inv / (e * e)

    def hamiltonian(self, t: float, eps: Optional[float] = None) -> np.ndarray:
        return self.a_of(eps) + t * self.b

    def partner(self, t: float, eps: Optional[float] = None) -> np.ndarray:
        return self.partner_constant(eps) + t * self.e1

    def partner_constant(self, eps: Optional[float] = None) -> np.ndarray:
        if not self.has_partner:
            raise MissingPartnerError(f"family {self.family!r} has no partner E")
        e = self._eps_value(eps)
        if e == 0.0:
            raise SingularPartnerError(
                f"partner of {self.family!r} is singular at eps = 0 (1/eps entries)"
            )
        return self.e_inv / e + self.e_0 + e * self.e_eps

    def descriptor(self) -> dict:
        d = {"family": self.family, "delta": _plain(self.delta), "slope": _plain(self.slope)}
        if self.family == "spin":
            d["k"] = self.k
        if self.eps is not None:
            d["eps"] = self.eps
        return d


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [float(v) for v in value]
    return float(value)


def _hermitize(upper: np.ndarray) -> np.ndarray:
    # fill the lower triangle from the upper one; diagonal must be real
    return upper + upper.conj().T - np.diag(np.diag(upper).real).astype(complex)


def _diag(values) -> np.ndarray:
    return np.diag(values).astype(complex)


def _require_positive(name, value):
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _scalar(name, value):
    if isinstance(value, (tuple, list, np.ndarray)):
        raise ValueError(f"{name} must be a scalar for this family")
    return float(value)


def _build_spin(k, delta, slope, family="spin", permute=None):
    if k is None or int(k) < 2:
        raise ValueError(f"spin family needs k >= 2, got {k}")
    k = int(k)
    d = _scalar("delta", delta)
    a = _require_positive("slope", _scalar("slope", slope))
    rep = build_spin_rep(k)
    a0 = 2.0 * d * rep.x
    b = 2.0 * a * rep.z
    if permute is not None:
        p = list(permute)
        a0 = a0[np.ix_(p, p)]
        b = b[np.ix_(p, p)]
    return AffineModel(
        family=family, k=k, delta=d, slope=a, eps=None,
        a0=a0, a1=np.zeros((k, k), dtype=complex), b=b,
        spin_basis_permutation=tuple(permute) if permute is not None else None,
    )


def _build_bowtie3(delta, slope, eps):
    # bowtieN with one sweeping level, under the scalar descriptor
    d = _scalar("delta", delta)
    a = _require_positive("slope", _scalar("slope", slope))
    return replace(_build_bowtieN((d,), (a,), eps), family="bowtie3", delta=d, slope=a)


def _build_bowtieN(deltas, slopes, eps):
    deltas = tuple(float(v) for v in np.atleast_1d(deltas))
    slopes = tuple(float(v) for v in np.atleast_1d(slopes))
    if len(deltas) != len(slopes) or not deltas:
        raise ValueError("delta and slope lists must have equal nonzero length")
    if any(s == 0.0 for s in slopes):
        raise ValueError("bowtieN slopes must be nonzero")
    mags = [abs(s) for s in slopes]
    for lo, hi in zip(mags, mags[1:]):
        if not lo < hi:
            raise ValueError(
                f"bowtieN slope magnitudes must be strictly increasing, got {mags}"
            )
    e = _scalar("eps", eps)
    n = len(slopes)
    k = n + 2
    d = np.array(deltas)
    s = np.array(slopes)
    sweep = np.arange(2, k)
    flat = [1.0, -1.0] + [0.0] * n
    hsum = float(np.sum(d * d / s))

    a0 = np.zeros((k, k), dtype=complex)
    a0[0, sweep] = a0[1, sweep] = d
    e_inv = np.zeros((k, k), dtype=complex)
    e_inv[0, 1] = -hsum
    e_inv[sweep, sweep] = -hsum
    e_0 = np.zeros((k, k), dtype=complex)
    e_0[0, sweep] = -d / s
    e_0[1, sweep] = d / s
    return AffineModel(
        family="bowtieN", k=k, delta=deltas, slope=slopes, eps=e,
        a0=_hermitize(a0), a1=_diag(flat), b=_diag([0.0, 0.0] + list(slopes)),
        e_inv=_hermitize(e_inv), e_0=_hermitize(e_0),
        e_eps=_diag([0.0, 0.0] + list(1.0 / s)),
        e1=_diag(flat),
    )


def _build_su3six(delta, slope, eps):
    d = _scalar("delta", delta)
    a = _require_positive("slope", _scalar("slope", slope))
    e = _scalar("eps", eps)
    s2d = _SQRT2 * d
    w = d * d / a
    flat = [2.0, 0.0, -2.0, 1.0, -1.0, 0.0]

    a0 = np.zeros((6, 6), dtype=complex)
    a0[0, 3] = a0[2, 4] = a0[3, 5] = a0[4, 5] = s2d
    a0[1, 3] = a0[1, 4] = d
    e_inv = np.zeros((6, 6), dtype=complex)
    e_inv[0, 1] = e_inv[1, 2] = -_SQRT2 * w
    # the slot coupling the two equal-slope sweeping levels must carry the
    # plain 1/eps weight; anything else breaks the commutation residual
    e_inv[3, 4] = -w
    e_inv[3, 3] = e_inv[4, 4] = -w
    e_inv[5, 5] = -2.0 * w
    e_0 = np.zeros((6, 6), dtype=complex)
    e_0[0, 3] = e_0[3, 5] = -s2d / a
    e_0[2, 4] = e_0[4, 5] = s2d / a
    e_0[1, 3] = d / a
    e_0[1, 4] = -d / a
    return AffineModel(
        family="su3six", k=6, delta=d, slope=a, eps=e,
        a0=_hermitize(a0), a1=_diag(flat), b=_diag([0.0, 0.0, 0.0, a, a, 2 * a]),
        e_inv=_hermitize(e_inv), e_0=_hermitize(e_0),
        e_eps=_diag([0.0, 0.0, 0.0, 1.0 / a, 1.0 / a, 2.0 / a]),
        e1=_diag(flat),
    )


def _build_su3adj8(delta, slope, eps):
    d = _scalar("delta", delta)
    b = _require_positive("slope", _scalar("slope", slope))
    e = _scalar("eps", eps)
    s2d = _SQRT2 * d
    s32d = _SQRT32 * d
    w = d * d / b
    flat = [0.0, 0.0, -2.0, 2.0, -1.0, 1.0, -1.0, 1.0]

    a0 = np.zeros((8, 8), dtype=complex)
    a0[0, 5] = a0[0, 6] = -1j * s32d
    a0[1, 4] = a0[1, 7] = 1j * s2d
    a0[1, 5] = a0[1, 6] = 1j * d / _SQRT2
    a0[2, 4] = a0[2, 6] = d
    a0[3, 5] = a0[3, 7] = -d
    # The two flat zero-weight levels admit a basis rotation that leaves H
    # unchanged only together with a matching rotation of E; the partner
    # below is the unique one (up to adding c(eps) * I) that satisfies the
    # zero-curvature identity in the same basis as a0.
    e_inv = np.zeros((8, 8), dtype=complex)
    e_inv[4, 4] = e_inv[5, 5] = e_inv[6, 7] = w
    e_inv[6, 6] = e_inv[7, 7] = e_inv[4, 5] = -w
    e_inv[0, 2] = e_inv[0, 3] = 1j * _SQRT32 * w
    e_inv[1, 2] = e_inv[1, 3] = 1j * w / _SQRT2
    e_0 = np.zeros((8, 8), dtype=complex)
    e_0[0, 5] = e_0[0, 6] = 1j * s32d / b
    e_0[1, 4] = e_0[1, 7] = 1j * s2d / b
    e_0[1, 5] = e_0[1, 6] = -1j * d / (_SQRT2 * b)
    e_0[2, 4] = e_0[3, 5] = -d / b
    e_0[2, 6] = e_0[3, 7] = d / b
    return AffineModel(
        family="su3adj8", k=8, delta=d, slope=b, eps=e,
        a0=_hermitize(a0), a1=_diag(flat),
        b=_diag([0.0, 0.0, 0.0, 0.0, -b, -b, b, b]),
        e_inv=_hermitize(e_inv), e_0=_hermitize(e_0),
        e_eps=_diag([0.0, 0.0, 0.0, 0.0, -1.0 / b, -1.0 / b, 1.0 / b, 1.0 / b]),
        e1=_diag(flat),
    )


def build_model(family, delta=None, slope=None, eps=None, k=None):
    """Build a catalog model by family tag.

    ``delta``/``slope`` are scalars except for bowtieN, which takes equal
    length lists.  ``eps`` is required for the bow-tie-type families and
    refused by the others; ``k`` is required for the spin family and
    refused by the others.  A non-finite ``delta``, ``slope`` or ``eps``
    raises ``ValueError``.
    """
    if family not in FAMILIES:
        raise UnknownFamilyError(
            f"unknown family {family!r}; valid families: {', '.join(FAMILIES)}"
        )
    if delta is None or slope is None:
        raise ValueError("delta and slope are required")
    if (eps is None) == (family in PARTNERED_FAMILIES):
        need = "requires" if eps is None else "takes no"
        raise ValueError(f"family {family!r} {need} eps")
    if k is not None and family != "spin":
        raise ValueError(f"k applies to the spin family only, not {family!r}")
    for name, value in (("delta", delta), ("slope", slope), ("eps", eps)):
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite, got {value}")

    if family == "lz2":
        return _build_spin(2, delta, slope, family="lz2")
    if family == "spin":
        return _build_spin(k, delta, slope)
    if family == "adjoint3":
        # basis ordered (m=+1, m=-1, m=0) relative to the spin k=3 ladder
        return _build_spin(3, delta, slope, family="adjoint3", permute=(0, 2, 1))
    if family == "bowtie3":
        return _build_bowtie3(delta, slope, eps)
    if family == "bowtieN":
        return _build_bowtieN(delta, slope, eps)
    if family == "su3six":
        return _build_su3six(delta, slope, eps)
    return _build_su3adj8(delta, slope, eps)


def model_from_descriptor(descriptor: dict) -> AffineModel:
    """Rebuild a model from its JSON descriptor (exact round trip)."""
    if not isinstance(descriptor, dict) or "family" not in descriptor:
        raise ValueError("descriptor must be a mapping with a 'family' key")
    extra = set(descriptor) - {"family", "k", "delta", "slope", "eps"}
    if extra:
        raise ValueError(f"unknown descriptor keys: {sorted(extra)}")
    return build_model(
        descriptor["family"],
        delta=descriptor.get("delta"),
        slope=descriptor.get("slope"),
        eps=descriptor.get("eps"),
        k=descriptor.get("k"),
    )

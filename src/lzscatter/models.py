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
Two base models and their images under a Lie-algebra representation
(``lift``), which keeps every term of the zero-curvature residual.
``unlift`` recovers a lifted model's base pair from its own coefficients,
and the group representation ``lift_unitary`` maps the base's propagator
to the model's:

lz2       base: two levels, H = 2 (a t Z_2 + delta X_2) in spin 1/2
spin      Sym^(k-1)(lz2): H = 2 (a t Z_k + delta X_k), levels by
          descending m; k = 2 reproduces lz2
adjoint3  Ad(lz2): the spin-1 sweep with levels (m = +1, -1, 0)
bowtie3   base: two flat levels at +-eps coupled through one sweeping
          level (bowtieN with one sweeping level)
bowtieN   base: k-2 sweeping levels, each coupled to both flat levels
su3six    Sym^2(bowtie3): slopes (0, 0, 0, a, a, 2a)
su3adj8   Ad(bowtie3): slopes (0, 0, 0, 0, -b, -b, b, b)

All parameters are plain reals in units with hbar = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import _expmi

FAMILIES = ("lz2", "spin", "adjoint3", "bowtie3", "bowtieN", "su3six", "su3adj8")
# the families with a flat-level splitting eps and a flow partner E
PARTNERED_FAMILIES = ("bowtie3", "bowtieN", "su3six", "su3adj8")
# the representation each lifted family applies to its base, lz2 or bowtie3
# (spin applies Sym^(k-1) to lz2)
_LIFTS = {"adjoint3": "adjoint", "su3six": ("sym", 2), "su3adj8": "adjoint"}

# the spin-1/2 generators (X, Y, Z) of su(2), basis ordered by descending m
SU2 = np.array([[[0.0, 0.5], [0.5, 0.0]], [[0.0, -0.5j], [0.5j, 0.0]], [[0.5, 0.0], [0.0, -0.5]]])


class UnknownFamilyError(ValueError):
    """Family tag not in the catalog."""


class MissingPartnerError(ValueError):
    """The family defines no flow partner E."""


class SingularPartnerError(ValueError):
    """The partner has 1/eps entries and eps is at the pole."""


def lift(x, rep):
    """The image ``rho(x)`` of an n x n matrix, or of a stack of them.

    ``rep`` is ``("sym", p)``, the p-th symmetric power, ``"adjoint"``, or
    ``None``, which returns ``x``.  ``rho`` is a Lie-algebra homomorphism
    with ``rho(x^dag) = rho(x)^dag``, and ``rho(x) = sum_ij x_ij rho(E_ij)``
    is one contraction with images that depend only on ``(n, rep)``.

    - Sym^p acts on occupation-number states ``|n>``, ordered
      colexicographically by their sorted level tuples (spin levels by
      descending m; Sym^2 of three levels as 11, 12, 22, 13, 23, 33), by
      ``rho(E_ij) |n> = sqrt(n_j (n_i + 1 - delta_ij)) |n - e_j + e_i>``.
    - The adjoint acts by ``M_kl = tr(B_k^dag [x, B_l])`` on the orthonormal
      traceless basis ``B`` adapted to the roots: for n = 2
      ``(E12, -E21, -H)`` with ``H = diag(1, -1)/sqrt 2``, for n = 3
      ``(H1, -H2, -iE21, iE12, iE23, iE13, -iE31, -iE32)`` with
      ``H1 = diag(2, -1, -1)/sqrt 6`` and ``H2 = diag(0, 1, -1)/sqrt 2``.
    """
    x = np.asarray(x)
    if rep is None:
        return x
    n = x.shape[-1]
    images = _elementary_images(n, rep)
    # tensordot over (i, j) as one matmul, which sets up faster; a sum of
    # negative zeros is -0.0, and adding +0.0 keeps it out of the coefficients
    out = x.reshape(*x.shape[:-2], n * n) @ images.reshape(n * n, -1) + 0.0
    return out.reshape(*x.shape[:-2], *images.shape[2:])


def unlift(x, rep):
    """The preimage under ``lift`` of a k x k matrix, or of a stack of them.

    Returns the n x n y (a stack for a stack) with ``lift(y, rep) = x``, one
    matmul of x against the pseudo-inverse of the elementary images, or None
    when no n >= 2 lifts to dimension k (``comb(n + p - 1, p)`` for
    ``("sym", p)``, ``n^2 - 1`` for ``"adjoint"``) or ``lift(y, rep)`` misses
    a member of x by more than 1e-12 of its largest entry.  The adjoint maps
    the identity to zero, so its y is traceless, which moves a propagator of
    y by a global phase only.  ``rep=None`` returns ``x``; a rep that ``lift``
    refuses raises.
    """
    x = np.asarray(x)
    if rep is None:
        return x
    k = x.shape[-1]
    n = next(n for n in itertools.count(2) if _elementary_images(n, rep).shape[-1] >= k)
    if _elementary_images(n, rep).shape[-1] != k:
        return None
    y = (x.reshape(*x.shape[:-2], k * k) @ _preimage_map(n, rep)).reshape(*x.shape[:-2], n, n)
    miss = np.abs(lift(y, rep) - x).max(axis=(-2, -1))
    return y if np.all(miss <= 1e-12 * np.abs(x).max(axis=(-2, -1))) else None


@functools.lru_cache(maxsize=None)
def _preimage_map(n, rep):
    # the (k^2, n^2) pseudo-inverse of the images as rows rho(E_ij), i.e. of lift
    return _frozen(np.linalg.pinv(_elementary_images(n, rep).reshape(n * n, -1)))


@functools.lru_cache(maxsize=None)
def _elementary_images(n, rep):
    # images[i, j] = rho(E_ij)
    if rep == "adjoint":
        # tr(C_k^dag [E_ij, C_l]) is a Gaussian integer on the unnormalized basis
        # C; |.|^2 over the squared norms, then one sqrt, rounds each entry once
        c = _adjoint_basis(n)
        t = np.einsum("kia,lja->ijkl", c.conj(), c) - np.einsum("kaj,lai->ijkl", c.conj(), c)
        squared_norms = np.einsum("kab,kab->k", c.conj(), c).real
        norms = np.multiply.outer(squared_norms, squared_norms)
        images = (np.sign(t.real) * np.sqrt(t.real ** 2 / norms)
                  + 1j * np.sign(t.imag) * np.sqrt(t.imag ** 2 / norms))
    else:
        states = _sym_states(n, rep)
        index = {state: col for col, state in enumerate(states)}
        images = np.zeros((n, n, len(states), len(states)))
        for (col, state), i, j in itertools.product(enumerate(states), range(n), range(n)):
            if state[j]:
                moved = tuple(s + (m == i) - (m == j) for m, s in enumerate(state))
                images[i, j, index[moved], col] = math.sqrt(state[j] * (state[i] + (i != j)))
    return _frozen(images)


def lift_unitary(u, rep):
    """The group image ``Pi(u)`` of an n x n unitary, or of a stack of them.

    ``Pi`` is the representation of U(n) whose derivative is ``lift``:
    ``Pi(exp(-i x)) = exp(-i lift(x, rep))`` for Hermitian x,
    ``Pi(u w) = Pi(u) Pi(w)`` and ``Pi(u^dag) = Pi(u)^dag``, so the
    propagator of a lifted model is the image of its base's propagator.
    It is formed as that exponential, from a Hermitian logarithm x of u
    and one ``eigh`` of the lifted ``lift(x, rep)``, at O(k^3) cost for a
    k-dimensional image.  ``rep=None`` returns ``u``.
    """
    u = np.asarray(u)
    if rep is None:
        return u
    return _expmi(lift(_unitary_log(u), rep))


def _unitary_log(u):
    # a Hermitian x with exp(-i x) = u.  The phase w = exp(i phi) moves the
    # middle of the widest gap in u's spectrum to -1, so 1 + v, v = u / w, is
    # well conditioned, and the Cayley transform h = i (1 + v)^-1 (1 - v) is
    # Hermitian with eigenvalue -tan(alpha / 2) where v has exp(-i alpha);
    # eigh gives it an orthonormal eigenbasis at any degeneracy
    phases = np.sort(np.angle(np.linalg.eigvals(u)), axis=-1)
    gaps = np.diff(phases, append=phases[..., :1] + 2.0 * np.pi, axis=-1)
    widest = gaps.argmax(axis=-1)[..., None]
    phi = np.take_along_axis(phases + 0.5 * gaps, widest, axis=-1) - np.pi
    v = u * np.exp(-1j * phi)[..., None]
    eye = np.eye(u.shape[-1])
    h = 1j * np.linalg.solve(eye + v, eye - v)
    w, q = np.linalg.eigh(0.5 * (h + h.conj().swapaxes(-1, -2)))
    return (q * (-2.0 * np.arctan(w) - phi)[..., None, :]) @ q.conj().swapaxes(-1, -2)


def _sym_states(n, rep):
    # the occupation states of Sym^p of n levels, colexicographic by their
    # sorted level tuples; any rep other than ("sym", p >= 1) or "adjoint" raises
    if not (isinstance(rep, tuple) and len(rep) == 2 and rep[0] == "sym" and _is_count(rep[1]) and rep[1] >= 1):
        raise ValueError(f"unknown representation {rep!r}; use ('sym', p) with p >= 1 or 'adjoint'")
    return [tuple(c.count(i) for i in range(n)) for c in sorted(
        itertools.combinations_with_replacement(range(n), int(rep[1])), key=lambda c: c[::-1])]


def _frozen(m):
    m = m.astype(complex)
    m.flags.writeable = False
    return m


def _adjoint_basis(n):
    # the basis of ``lift``'s docstring, unnormalized
    e = np.eye(n)[:, None, :, None] * np.eye(n)[None, :, None, :]  # e[i, j] = |i><j|
    if n == 2:
        return np.array([e[0, 1], -e[1, 0], -np.diag([1.0, -1.0])])
    if n == 3:
        return np.array([np.diag([2.0, -1.0, -1.0]), -np.diag([0.0, 1.0, -1.0]), -1j * e[1, 0], 1j * e[0, 1],
                         1j * e[1, 2], 1j * e[0, 2], -1j * e[2, 0], -1j * e[2, 1]])
    raise ValueError(f"the adjoint lift is defined for n = 2 and 3, got n = {n}")


def _is_count(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _spin_sym(k):
    # the spin-k generators are the Sym^(k-1) lift of the spin-1/2 ones
    if not (_is_count(k) and k >= 2):
        raise ValueError(f"spin family needs an integer k >= 2, got k = {k!r}")
    return ("sym", int(k) - 1)


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
    # the representation the family lifts its base model through (``lift``)
    rep: object = None

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


def _require_positive(name, value):
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _scalar(name, value):
    if isinstance(value, (tuple, list, np.ndarray)):
        raise ValueError(f"{name} must be a scalar for this family")
    return float(value)


def _build_sweep(delta, slope, family, rep):
    # 2 (a t rho(Z_2) + delta rho(X_2)): the generators are lifted before
    # scaling, which keeps the spin entries the exact ladder amplitudes
    d = _scalar("delta", delta)
    a = _require_positive("slope", _scalar("slope", slope))
    x, z = lift(SU2[[0, 2]], rep)
    k = len(x)
    return AffineModel(family, k, d, a, None, 2.0 * d * x, np.zeros((k, k), dtype=complex), 2.0 * a * z, rep=rep)


def _build_bowtie3(delta, slope, eps, family, rep):
    # bowtieN with one sweeping level, under the scalar descriptor, or its lift
    d = _scalar("delta", delta)
    a = _require_positive("slope", _scalar("slope", slope))
    c = lift(_bowtie_coefficients(np.array([d]), np.array([a])), rep)
    return AffineModel(family, len(c[0]), d, a, _scalar("eps", eps), *c, rep=rep)


def bowtieN_lists(deltas, slopes):
    """bowtieN's coupling and slope lists as float tuples, checked.

    The lists have equal nonzero length, and the slope magnitudes are
    nonzero and strictly increasing.
    """
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
    return deltas, slopes


def _build_bowtieN(deltas, slopes, eps):
    deltas, slopes = bowtieN_lists(deltas, slopes)
    c = _bowtie_coefficients(np.array(deltas), np.array(slopes))
    return AffineModel("bowtieN", len(c[0]), deltas, slopes, _scalar("eps", eps), *c)


def _bowtie_coefficients(d, s):
    # the stack (a0, a1, b, e_inv, e_0, e_eps, e1) of bowtieN, in AffineModel's
    # field order; levels 0 and 1 are the flat pair, the others sweep with slopes s
    k = len(s) + 2
    c = np.zeros((7, k, k))
    c[0, :2, 2:] = d
    c[3, 0, 1] = -float((d * d / s).sum())
    c[4, 0, 2:] = -d / s
    c[4, 1, 2:] = d / s
    c = c + c.transpose(0, 2, 1)
    diagonals = c.reshape(7, k * k)[:, :: k + 1]
    diagonals[1, :2] = diagonals[6, :2] = (1.0, -1.0)
    diagonals[2, 2:] = s
    diagonals[3, 2:] = c[3, 0, 1]
    diagonals[5, 2:] = 1.0 / s
    return c.astype(complex)


def build_model(family, delta=None, slope=None, eps=None, k=None):
    """Build a catalog model by family tag.

    ``delta``/``slope`` are scalars except for bowtieN, which takes equal
    length lists.  ``eps`` is required for the bow-tie-type families and
    refused by the others; ``k`` is required for the spin family and
    refused by the others.  A non-finite ``delta``, ``slope`` or ``eps``,
    or one that overflows a coefficient, raises ``ValueError``.
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

    rep = _spin_sym(k) if family == "spin" else _LIFTS.get(family)
    with np.errstate(over="ignore", invalid="ignore"):
        if family in ("lz2", "spin", "adjoint3"):
            model = _build_sweep(delta, slope, family, rep)
        elif family == "bowtieN":
            model = _build_bowtieN(delta, slope, eps)
        else:
            model = _build_bowtie3(delta, slope, eps, family, rep)
    coefficients = (model.a0, model.a1, model.b, model.e_inv, model.e_0, model.e_eps, model.e1)
    if not all(np.isfinite(c).all() for c in coefficients if c is not None):
        raise ValueError(f"delta {delta} and slope {slope} overflow the coefficients of {family!r}")
    return model


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

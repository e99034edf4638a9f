"""Dense complex linear algebra and ODE propagation substrate.

Everything downstream (model evaluation, Lax flows, the numerical
scattering engine) goes through the handful of operations in this module:
a validated Hermitian eigensolver, the matrix commutator, and an
adaptive Magnus propagator for linear Schrodinger-type flows.  The Magnus
update is a product of exact matrix exponentials of Hermitian generators
and is therefore unitary to roundoff at any step size, where a generic
Runge-Kutta route accumulates unitarity drift over sweeps of several
hundred time units.

The propagator takes either a callable ``H(t)`` or a pair ``(A, B)``
standing for the affine ``H(t) = A + t B`` of every catalog family.  For
the pair ``[H(t1), H(t2)] = (t2 - t1) [A, B]``, so the fourth-order Magnus
generator of a step ``[t, t + h]`` is exactly

    h A + h t_mid B + (i h^3 / 12) [A, B],    t_mid = t + h / 2,

with ``[A, B]`` computed once per propagation and no ``H(t)`` evaluated.
Each step exponentiates its three generators (the full step and its two
halves, for step-doubling error control) as one stack in a single
``eigh`` call: at dimensions up to 8 the per-call overhead, not the
arithmetic, is what costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT3 = np.sqrt(3.0)
# coefficient of h^3 [A, B] in the affine fourth-order Magnus generator
_I12 = 1j / 12.0

# smallest step fraction before the adaptive driver declares divergence
_MIN_STEP_FRACTION = 1e-12


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix and gets none."""


class IntegrationDivergedError(RuntimeError):
    """Adaptive stepping drove the step size below the underflow floor.

    ``last_t`` carries the last accepted time.
    """

    def __init__(self, message, last_t):
        super().__init__(message)
        self.last_t = last_t


@dataclass(frozen=True)
class OdeSettings:
    """Tolerances for the adaptive propagator.

    rtol, atol : local error tolerances, both constrained to (0, 1e-2]
    """

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        for name in ("rtol", "atol"):
            tol = getattr(self, name)
            if not (0.0 < tol <= 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2], got {tol}")


def _as_complex_square(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def commutator(a, b):
    """Return ``a @ b - b @ a`` for equal-dimension square matrices."""
    a = _as_complex_square(a, "a")
    b = _as_complex_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b - b @ a


def hermiticity_defect(m):
    """Max absolute deviation of ``m`` from its own conjugate transpose."""
    m = _as_complex_square(m)
    return float(np.abs(m - m.conj().T).max())


def _require_hermitian(m, name="matrix", tol=1e-12):
    # eigh reads one triangle only, so a non-Hermitian input would be
    # silently replaced by a different, Hermitian matrix
    m = _as_complex_square(m, name)
    scale = float(np.abs(m).max())
    defect = hermiticity_defect(m)
    if defect > tol * max(scale, 1e-300):
        raise NonHermitianError(
            f"{name} is not Hermitian: max|M - M^dag| = {defect:.3e} "
            f"exceeds {tol:.1e} * max|M| = {tol * scale:.3e}"
        )
    return m


def hermitian_eigs(m, tol=1e-12):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``.  Rejects input whose Hermiticity defect
    exceeds ``tol * max|m|``, naming the offending deviation.
    """
    w, v = np.linalg.eigh(_require_hermitian(m, tol=tol))
    return w, v


def _expmi(m):
    # exp(-i m) for a Hermitian matrix or a stack of them, unitary to roundoff
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _magnus_generator(hfun, t, h):
    # fourth-order two-point Gauss generator: exp(-i M) advances by h
    c = _SQRT3 / 6.0
    h1 = hfun(t + (0.5 - c) * h)
    h2 = hfun(t + (0.5 + c) * h)
    prod = h1 @ h2
    return 0.5 * h * (h1 + h2) + 1j * (_SQRT3 / 12.0) * h * h * (prod - prod.conj().T)


def _step_generators(hfun, t0):
    """Dimension ``n`` and a map ``(t, h) -> (3, n, n)`` of step generators.

    The stack holds the generators of ``[t, t + h]``, ``[t, t + h/2]`` and
    ``[t + h/2, t + h]``, in that order.
    """
    if callable(hfun):
        n = _require_hermitian(hfun(t0), "H(t0)").shape[0]

        def generators(t, h):
            return np.stack((
                _magnus_generator(hfun, t, h),
                _magnus_generator(hfun, t, 0.5 * h),
                _magnus_generator(hfun, t + 0.5 * h, 0.5 * h),
            ))

        return n, generators
    a = _require_hermitian(hfun[0], "A")
    b = _require_hermitian(hfun[1], "B")
    # rows A, B, [A, B] (commutator validates the shapes); each generator
    # is one complex combination of the three
    c = commutator(a, b)
    n = c.shape[0]
    basis = np.stack((a, b, c)).reshape(3, n * n)

    def generators(t, h):
        half = 0.5 * h
        coef = np.array([
            (h, h * (t + half), _I12 * h ** 3),
            (half, half * (t + 0.25 * h), _I12 * half ** 3),
            (half, half * (t + 0.75 * h), _I12 * half ** 3),
        ])
        return (coef @ basis).reshape(3, n, n)

    return n, generators


def propagate_unitary(hfun, t0, t1, settings=None):
    """Propagator ``U(t1, t0)`` of ``i dU/dt = H(t) U`` for Hermitian H(t).

    ``hfun`` is either a callable ``H(t)`` or a pair ``(A, B)`` meaning
    ``H(t) = A + t B``.  For the pair the fourth-order Magnus generator of a
    step ``h`` at midpoint ``t_mid`` is the closed form
    ``h A + h t_mid B + (i h^3 / 12) [A, B]``, with the commutator formed
    once per call; a callable is sampled at the two Gauss points of every
    step.  Both forms run through one adaptive stepping loop with
    step-doubling error control, and each step exponentiates its full-step
    and two half-step generators as one stacked ``eigh``.  Every update is
    an exact exponential of a Hermitian generator, so the result is unitary
    to roundoff regardless of tolerance; the tolerances control
    phase/transition accuracy only.  ``A`` and ``B``, or the callable's
    ``H(t0)``, are checked once per call by the ``hermitian_eigs`` rule and
    rejected with ``NonHermitianError``.
    """
    if settings is None:
        settings = OdeSettings()
    if t0 == t1:
        raise ValueError("t0 and t1 must differ")
    n, generators = _step_generators(hfun, t0)
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    u = np.eye(n, dtype=complex)
    t = t0
    h_prop = span * 1e-3
    tol = settings.atol + settings.rtol
    h_floor = _MIN_STEP_FRACTION * abs(span)
    while (t1 - t) * direction > 0.0:
        h = h_prop
        if (t + h - t1) * direction > 0.0:
            h = t1 - t
        full, first, second = _expmi(generators(t, h))
        half = second @ first
        err = float(np.abs(half - full).max()) / 15.0
        if err <= tol:
            u = half @ u
            t = t + h
            h_prop = h * min(2.5, max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2))
        else:
            h_prop = h * max(0.1, 0.9 * (tol / err) ** 0.2)
            if abs(h_prop) < h_floor:
                raise IntegrationDivergedError(
                    f"magnus step underflow at t = {t!r}", t
                )
    return u


def unitarity_defect(u):
    """Max entry of ``|U^dag U - I|``."""
    u = _as_complex_square(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())

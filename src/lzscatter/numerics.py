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
the pair ``[H(t1), H(t2)] = (t2 - t1) [A, B]``, and the Magnus series of a
step ``[t, t + h]`` truncated at sixth order (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009), their Omega^[6] with alpha_3 = 0) is exactly

    h A + h t_m B + (i h^3 / 12) C + (h^5 / 240) [B, C]
        + (i h^5 / 720) ([A, [A, C]] + 2 t_m [B, [A, C]] + t_m^2 [B, [B, C]]),

with ``C = [A, B]`` and ``t_m = t + h / 2``; Jacobi with ``[C, C] = 0``
gives ``[A, [B, C]] = [B, [A, C]]``.  The seven Hermitian matrices ``A, B,
iC, [B, C], i[A, [A, C]], i[B, [A, C]], i[B, [B, C]]`` are formed once per
propagation, every step generator is one real combination of them, and no
``H(t)`` is evaluated.  A callable keeps the fourth-order two-point Gauss
generator: sixth order would need a third sample of ``H`` and nested
commutators of the samples at every step.

The adaptive loop works in blocks.  A block is a run of up to
``_BLOCK_STEPS`` (128) steps of the proposed size from the last accepted
time, its starts one running sum, the step that reaches ``t1`` clipped
there.  The block is capped (below) as a whole: the caps of all its steps
and members are one array expression, the steps over their cap are
shortened, the later starts move with them, and the caps are read again
until none binds.  The generators of every step of the block
(the full step and its two halves, for every member) are formed at once,
for the pair by one ``(3K, 7) @ (7, m 2n^2)`` product, and one stacked
``eigh`` exponentiates all 3Km of them: at dimensions up to 8 the
per-call overhead, not the arithmetic, is what costs.  A 2 x 2 stack
(the fundamental pair of the Lax flow, ``lz2``) takes Rodrigues' closed
form instead, entry by entry over the stack.  The step-doubling
error estimate is the Richardson one, ``|U_half - U_full| / (2^p - 1)`` for
a generator of order p, one entry per step.  The longest prefix of steps
that each meet the tolerance is accepted and multiplied onto U; the
controller then restarts from the first rejected step, shrunk by the usual
factor, and the exponentials of the steps after it are discarded.  A block
starts at ``_FIRST_BLOCK_STEPS`` steps, doubles after it is accepted whole
and halves after a rejection, which keeps that discarded tail to a few per
cent of the exponentials.

The Richardson estimate is faithful only while a step turns the relative
phase of the levels that ``[A, B]`` couples by less than 2 pi; beyond that
the full and half-step propagators can agree while both are wrong.  So
every step is also capped at ``h g(t_m) <= 2 pi`` at its own midpoint
``t_m``, with the gap ``g`` estimated as ``(|[H, [H, C]]| / |C|)^(1/2)``:
from the basis for the pair, from ``H = (H1 + H2) / 2`` and
``C ~ [H1, H2]`` at the step's two Gauss samples for a callable.  A capped
step is shortened to its cap, or by at least ``_CAP_SHRINK`` where the cap
grows along it (toward a smaller gap), until it meets the cap at its own
midpoint.

A pair may be a stack of m pairs ``(m, n, n)``; the members share every
step (the error is the largest, the cap the smallest over them), and a
block's one ``eigh`` exponentiates the generators of all of them.  That is what makes the fold at
``t = 0`` cheap.  For ``W(s) = U(-s, 0)``, ``i dW/ds = (-A + s B) W``, so

    U(T, -T) = F(T, 0) G(T, 0)^dag,

with F the propagator of ``(A, B)`` and G that of the mirror ``(-A, B)``,
both started at 0 and run outward over the same t values.  A sweep of
``[-T, T]`` is then one lockstep sweep of ``[0, T]`` on the stack
``(A, -A), (B, B)``: half the ``eigh`` calls for the same matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT3 = np.sqrt(3.0)

# largest h * g of a step, g the level gap that [A, B] couples:
# beyond one relative phase turn of the coupled levels per step the full
# and half-step propagators can agree while both are wrong, and step
# doubling under-reported the error by up to 10^4 (rtol 1e-6, five families)
_MAX_STEP_PHASE = 2.0 * np.pi

# steps per block: one stacked eigh exponentiates the generators of every
# step of a block.  A block starts at _FIRST_BLOCK_STEPS, doubles after it
# is accepted whole and halves after a rejection
_BLOCK_STEPS = 128
_FIRST_BLOCK_STEPS = 4

# a capped step that misses the cap at its own midpoint is shortened by at
# least this factor per pass
_CAP_SHRINK = 0.999

# smallest step, as a fraction of the span, before the adaptive driver
# declares divergence: a run at that step would need 10^7 steps to finish
_MIN_STEP_FRACTION = 1e-7


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix and gets none."""


class IntegrationDivergedError(RuntimeError):
    """Adaptive stepping drove the step below its floor, or the span overflows the step generators.

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


def _require_hermitian(m, name="matrix", tol=1e-12):
    # eigh reads one triangle only, so a non-Hermitian input would be
    # silently replaced by a different, Hermitian matrix
    m = _as_complex_square(m, name)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    scale = float(np.abs(m).max())
    defect = float(np.abs(m - m.conj().T).max())
    if defect > tol * max(scale, 1e-300):
        raise NonHermitianError(
            f"{name} is not Hermitian: max|M - M^dag| = {defect:.3e} "
            f"exceeds {tol:.1e} * max|M| = {tol * scale:.3e}"
        )
    return m


def _hermitian_members(m, name):
    # a matrix or a stack of them as an (m, n, n) stack, each member checked
    m = np.asarray(m, dtype=complex)
    return np.stack([_require_hermitian(x, name) for x in (m if m.ndim == 3 else [m])])


def hermitian_eigs(m, tol=1e-12):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``.  Rejects input with a non-finite entry
    (``ValueError``) or whose Hermiticity defect exceeds ``tol * max|m|``
    (``NonHermitianError``, naming the offending deviation).
    """
    w, v = np.linalg.eigh(_require_hermitian(m, tol=tol))
    return w, v


def _expmi(m):
    # exp(-i m) for a Hermitian matrix or a stack of them, unitary to roundoff
    if m.shape[-1] == 2:
        return _expmi2(m)
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _expmi2(m):
    # Rodrigues: m = c0 I + c.sigma gives
    # exp(-i m) = e^(-i c0) (cos|c| I - i (sin|c| / |c|) c.sigma);
    # like eigh, it reads the diagonal and the lower triangle only
    d0 = m[..., 0, 0].real
    d1 = m[..., 1, 1].real
    z = 0.5 * (d0 - d1)
    off = m[..., 1, 0]  # c1 + i c2
    r = np.hypot(z, np.abs(off))
    sinc = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0.0)
    phase = np.exp(-0.5j * (d0 + d1))
    identity_part = phase * np.cos(r)
    sigma_part = -1j * phase * sinc
    out = np.empty(m.shape, dtype=complex)
    out[..., 0, 0] = identity_part + sigma_part * z
    out[..., 1, 1] = identity_part - sigma_part * z
    out[..., 1, 0] = sigma_part * off
    out[..., 0, 1] = sigma_part * off.conj()
    return out


def _magnus_generator(hfun, t, h):
    # fourth-order two-point Gauss generator: exp(-i M) advances by h
    c = _SQRT3 / 6.0
    h1 = hfun(t + (0.5 - c) * h)
    h2 = hfun(t + (0.5 + c) * h)
    prod = h1 @ h2
    return 0.5 * h * (h1 + h2) + 1j * (_SQRT3 / 12.0) * h * h * (prod - prod.conj().T)


def _commutator(a, b):
    # unchecked, on matrices or stacks of them
    return a @ b - b @ a


def _step_generators(hfun, t0, t1=None):
    """Dimension ``n``, a map ``(t, h) -> (3, ..., m, n, n)``, the order, a step cap.

    The stack holds the generators of ``[t, t + h]``, ``[t, t + h/2]`` and
    ``[t + h/2, t + h]``, in that order, for each of the ``m`` members.
    ``t`` and ``h`` are scalars, giving ``(3, m, n, n)``, or equal-shape
    arrays of the steps of a block, giving ``(3, K, m, n, n)`` for K steps.
    A callable (``m = 1``) gets the fourth-order Gauss generator, one step
    at a time; a pair ``(A, B)`` the sixth-order closed form, every step of
    the block in one product; ``A`` and ``B`` are matrices (``m = 1``) or
    stacks of ``m`` of them.  The cap maps steps ``(t, h)``, scalars (a
    float) or equal-shape arrays (an array), to the largest step allowed
    there, ``2 pi`` over the coupled gap at the step's midpoint, the
    smallest over the members: from the basis for the pair, every step and
    member in one expression; from the step's two Gauss samples for a
    callable, one step at a time.  Given ``t1``, a pair whose generators
    could overflow on ``[t0, t1]`` is refused before any step.
    """
    if callable(hfun):
        n = _require_hermitian(hfun(t0), "H(t0)").shape[0]
        c = _SQRT3 / 6.0

        def generators(t, h):
            if np.ndim(t):
                return np.stack([generators(t_j, h_j) for t_j, h_j in zip(t, h)], axis=1)
            return np.stack((
                _magnus_generator(hfun, t, h),
                _magnus_generator(hfun, t, 0.5 * h),
                _magnus_generator(hfun, t + 0.5 * h, 0.5 * h),
            ))[:, None]

        def max_step(t, h):
            if np.ndim(t):
                return np.array([max_step(t_j, h_j) for t_j, h_j in zip(t, h)])
            # [H1, H2] = (t2 - t1) [A, B] for an affine H; the gap formula
            # does not depend on the scale of C, so the factor is dropped
            h1 = hfun(t + (0.5 - c) * h)
            h2 = hfun(t + (0.5 + c) * h)
            comm = _commutator(h1, h2)
            mid = 0.5 * (h1 + h2)
            curv = _commutator(mid, _commutator(mid, comm))
            q = float(np.vdot(curv, curv).real)
            c_sq = float(np.vdot(comm, comm).real)
            return _MAX_STEP_PHASE * (c_sq / q) ** 0.25 if q > 0.0 else np.inf

        return n, generators, 4, max_step
    a = _hermitian_members(hfun[0], "A")
    b = _hermitian_members(hfun[1], "B")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: A {a.shape} vs B {b.shape}")
    m, n, _ = a.shape
    # the basis holds seven Hermitian matrices per member and each
    # generator is one real combination of them, formed for every step and
    # member at once by one product on the float view of the basis.  The
    # basis is quartic in (A, B) (|A|^3 |B| for [A, [A, C]]) and the cap
    # quartic's coefficients are its squares, so a large pair overflows
    # them; that is refused by name, not left to eigh
    with np.errstate(over="ignore", invalid="ignore"):
        c = _commutator(a, b)
        bc = _commutator(b, c)
        ac = _commutator(a, c)
        basis = np.stack((
            a, b, 1j * c, bc, 1j * _commutator(a, ac), 1j * _commutator(b, ac),
            1j * _commutator(b, bc),
        )).reshape(7, m, n * n)
        caps = np.array([_cap_quartic(last, c_member) for last, c_member in zip(np.swapaxes(basis[4:], 0, 1), c)])
    if not (np.isfinite(basis).all() and np.isfinite(caps).all()):
        raise ValueError(
            f"A and B overflow the Magnus basis or its step cap: max|A| = {np.abs(a).max():.3e}, "
            f"max|B| = {np.abs(b).max():.3e} (its entries are quartic in A and B, their squares)"
        )
    if t1 is not None:
        # a span whose generators could overflow is refused before any step:
        # each coefficient grows with |h| and |t_m| (numpy floats, so a power
        # overflows to inf), and bounds its share of a generator entry by
        # the largest entry of its basis matrix
        with np.errstate(over="ignore", invalid="ignore"):
            worst = np.abs(_pair_coefficients(np.float64(abs(t1 - t0)), np.float64(max(abs(t0), abs(t1))))) \
                @ np.abs(basis).max(axis=(1, 2))
        if not np.isfinite(worst):
            raise IntegrationDivergedError(f"the span [{t0:g}, {t1:g}] overflows the Magnus step generators", t0)
    basis_re = basis.reshape(7, -1).view(float)
    c_sq, quartic = caps[:, 0], caps[:, 1:].T

    def generators(t, h):
        # row j of coef holds the coefficients of the generator of
        # [mid_j - step_j/2, mid_j + step_j/2]
        t = np.asarray(t, dtype=float)
        h = np.asarray(h, dtype=float)
        half = 0.5 * h
        coef = _pair_coefficients(np.stack((h, half, half)), np.stack((t + half, t + 0.5 * half, t + 1.5 * half)))
        out = coef.reshape(-1, 7) @ basis_re
        return out.view(complex).reshape(coef.shape[:-1] + (m, n, n))

    def max_step(t, h):
        # the quartic of every step (rows) and member (columns) by Horner;
        # a member whose quartic is not positive does not cap the step, one
        # that overflows (to +inf, far out) caps it at 0.  Elementwise
        # operations only, so a step's cap does not depend on the shape it
        # is evaluated in
        mid = np.asarray(t + 0.5 * h, dtype=float)[..., None]
        q = quartic[0]
        with np.errstate(over="ignore"):
            for coef in quartic[1:]:
                q = q * mid + coef
        ratio = np.divide(c_sq, q, out=np.full(q.shape, np.inf), where=q > 0.0).min(axis=-1)
        cap = _MAX_STEP_PHASE * np.sqrt(np.sqrt(ratio))
        return cap if cap.ndim else float(cap)

    return n, generators, 6, max_step


def _pair_coefficients(step, mid):
    # the coefficients of the seven basis matrices in the generator of the
    # step of length `step` around `mid`, stacked on a last axis
    h5 = step ** 5 / 720.0
    return np.stack((step, step * mid, step ** 3 / 12.0, 3.0 * h5, h5, 2.0 * h5 * mid, h5 * mid * mid), axis=-1)


def _cap_quartic(last, c):
    # the gap g(t) is estimated as (|[H, [H, C]]| / |C|)^(1/2) (Frobenius,
    # H = H(t)); |[H, [H, C]]|^2 is a quartic in t, from the Gram matrix of
    # a member's last three basis rows.  Returns |C|^2 and the quartic's
    # coefficients, highest power first
    gram = (last.conj() @ last.T).real
    return [float(np.vdot(c, c).real), float(gram[2, 2]), float(4.0 * gram[1, 2]),
            float(4.0 * gram[1, 1] + 2.0 * gram[0, 2]), float(4.0 * gram[0, 1]), float(gram[0, 0])]


def _block(max_step, t, t1, h, length, h_floor):
    # the starts and steps of a block of up to `length` steps of size h
    # from t, and where it ends.  The step that reaches t1 is clipped there
    # and ends the block.  Every step over its cap is shortened to it, and
    # by at least _CAP_SHRINK, the later starts move with it, and the caps
    # are read again until none binds; a cap that grows along its step (as
    # toward a smaller gap) settles in a few passes.  A binding cap below
    # the floor ends the block before its step, or raises at the block's
    # first step
    steps = np.full(length, h)
    while True:
        # edges[j] is where step j starts: the same sequential sums as
        # stepping one at a time
        edges = np.add.accumulate(np.concatenate(((t,), steps)))
        reach = edges[1:] >= t1 if h > 0.0 else edges[1:] <= t1
        reached = reach.any()
        count = int(reach.argmax()) + 1 if reached else len(steps)
        starts = edges[:count]
        block = steps[:count].copy()
        if reached:
            block[-1] = t1 - starts[-1]
        caps = max_step(starts, block)
        over = np.abs(block) > caps
        if not over.any():
            return starts, block, t1 if reached else edges[count]
        steps[:count][over] = np.copysign(np.minimum(caps, _CAP_SHRINK * np.abs(block)), h)[over]
        low = over & (caps < h_floor)
        if low.any():
            # a cap that shrinks toward zero would otherwise loop forever
            cut = int(low.argmax())
            if cut == 0:
                raise IntegrationDivergedError(f"magnus step cap below the underflow floor at t = {t!r}", t)
            steps = steps[:cut]


def _ordered_product(mats):
    # mats[-1] @ ... @ mats[0] for a stack of matrices (or of matrix
    # stacks), as pairwise products: log2(p) batched matmuls, not p
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        pairs = mats[1:even:2] @ mats[0:even:2]
        mats = np.concatenate((pairs, mats[even:])) if even < len(mats) else pairs
    return mats[0]


def _propagate(hfun, t0, t1, settings):
    # the adaptive loop over blocks of steps; (m, n, n), one propagator
    # per member
    n, generators, order, max_step = _step_generators(hfun, t0, t1)
    # Richardson: the two half steps carry 2^-order of the full step's error
    divisor = 2.0 ** order - 1.0
    exponent = 1.0 / (order + 1)
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    u = np.eye(n, dtype=complex)
    t = t0
    h_prop = span * 1e-3
    tol = settings.atol + settings.rtol
    h_floor = _MIN_STEP_FRACTION * abs(span)
    length = _FIRST_BLOCK_STEPS
    while (t1 - t) * direction > 0.0:
        starts, steps, s = _block(max_step, t, t1, h_prop, length, h_floor)
        full, first, second = _expmi(generators(starts, steps))
        half = second @ first
        err = np.abs(half - full).reshape(len(steps), -1).max(axis=1) / divisor
        # accept the longest prefix of steps that each meet the tolerance
        passed = err <= tol
        accepted = len(steps) if passed.all() else int(passed.argmin())
        if accepted:
            u = _ordered_product(half[:accepted]) @ u
            # the accepted steps end where the first rejected one starts
            t = float(starts[accepted] if accepted < len(steps) else s)
        if accepted == len(steps):
            e = float(err[-1])
            h_prop = steps[-1] * min(2.5, max(0.2, 0.9 * (tol / max(e, 1e-300)) ** exponent))
            length = min(2 * length, _BLOCK_STEPS)
        else:
            # restart from the first rejected step
            e = float(err[accepted])
            h_prop = steps[accepted] * max(0.1, 0.9 * (tol / e) ** exponent)
            length = max(length // 2, _FIRST_BLOCK_STEPS)
        # accepted steps that keep shrinking (toward a finite-time
        # singularity) stop here too, not only rejected ones
        if abs(h_prop) < h_floor and (t1 - t) * direction > 0.0:
            raise IntegrationDivergedError(f"magnus step underflow at t = {t!r}", t)
    return u


def propagate_unitary(hfun, t0, t1, settings=None):
    """Propagator ``U(t1, t0)`` of ``i dU/dt = H(t) U`` for Hermitian H(t).

    ``hfun`` is either a callable ``H(t)`` or a pair ``(A, B)`` meaning
    ``H(t) = A + t B``.  ``A`` and ``B`` may also be stacks of shape
    ``(m, n, n)``; the ``m`` members then share every step and the result
    has shape ``(m, n, n)``.  The pair gets the sixth-order Magnus generator
    in closed form (module docstring), a real combination of seven matrices
    formed once per call; a callable is sampled at the two Gauss points of
    every step for the fourth-order generator.  Both forms run through one
    adaptive loop with step-doubling error control (Richardson divisor
    ``2^p - 1``, step exponent ``1 / (p + 1)`` for order p, the error the
    largest over the members).  The loop proposes a block of up to 128
    steps of one size, the last clipped at ``t1``, and settles the step cap
    for the block as a whole: each step is kept below one turn of the
    relative phase of the levels ``[A, B]`` couples at its own midpoint,
    where the error estimate stops being faithful, and a shortened step
    moves the later ones until every cap holds (a callable estimates that
    gap from its Gauss samples).  It then exponentiates the full-step and
    two half-step generators of every step and member of the block as one
    stacked ``eigh`` (Rodrigues' closed form at n = 2), accepts the longest
    prefix of steps that each meet the tolerance and restarts from the
    first rejected one, discarding the rest of the block.

    An unstacked pair whose interval has 0 strictly inside is folded there:
    ``U(t1, t0) = F(t1, 0) G(-t0, 0)^dag`` with F the propagator of
    ``(A, B)`` and G that of the mirror ``(-A, B)``, both outward from 0
    in the direction of ``t1 - t0``.  F and G are propagated as one stack
    up to ``min(|t0|, |t1|)`` and the longer one is finished alone, so
    every step exponentiates two members for the price of one ``eigh``
    call and the interval costs one sweep of its longer half.

    Every update is an exact exponential of a Hermitian generator, so the
    result is unitary to roundoff regardless of tolerance; the tolerances
    control phase/transition accuracy only.  ``A`` and ``B`` (each member),
    or the callable's ``H(t0)``, are checked once per call by the
    ``hermitian_eigs`` rule; non-finite endpoints raise ``ValueError``.  A
    pair span that would overflow a step generator, and a proposed step or
    step cap below ``1e-7`` of the span (accepted or not, so a finite-time
    singularity ends the run early), raise ``IntegrationDivergedError``.
    """
    if settings is None:
        settings = OdeSettings()
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    if t0 == t1:
        raise ValueError("t0 and t1 must differ")
    if callable(hfun):
        return _propagate(hfun, t0, t1, settings)[0]
    a, b = (np.asarray(x, dtype=complex) for x in hfun)
    if a.ndim != 2 or b.ndim != 2:
        return _propagate((a, b), t0, t1, settings)
    if t0 * t1 >= 0.0:
        return _propagate((a, b), t0, t1, settings)[0]
    # i dW/ds = (-A + s B) W for W(s) = U(-s, 0), so U(0, t0) = G(-t0, 0)^dag
    inner = math.copysign(min(abs(t0), abs(t1)), t1)
    f, g = _propagate((np.stack((a, -a)), np.stack((b, b))), 0.0, inner, settings)
    if abs(t1) > abs(inner):
        f = _propagate((a, b), inner, t1, settings)[0] @ f
    elif abs(t0) > abs(inner):
        g = _propagate((-a, b), inner, -t0, settings)[0] @ g
    return f @ g.conj().T


def unitarity_defect(u):
    """Max entry of ``|U^dag U - I|``."""
    u = _as_complex_square(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())

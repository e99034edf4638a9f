"""Dense complex linear algebra and ODE propagation substrate.

Everything downstream (model evaluation, Lax flows, the numerical
scattering engine) goes through the handful of operations in this module:
the matrix commutator, the exponential of a Hermitian generator, and an
adaptive Magnus propagator for linear Schrodinger-type flows.  The Magnus
update is a product of exact matrix exponentials of Hermitian generators
and is therefore unitary to roundoff at any step size, where a generic
Runge-Kutta route accumulates unitarity drift over sweeps of several
hundred time units.

The propagator takes a pair ``(A, B)`` standing for the affine ``H(t) =
A + t B`` of every catalog family.  Then ``[H(t1), H(t2)] = (t2 - t1)
[A, B]``, and the Magnus series of a step ``[t, t + h]`` truncated at
eighth order (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)) is,
with ``X = H(t_m) = A + t_m B`` at the midpoint ``t_m = t + h / 2``, ``Y =
B``, ``C = [X, Y] = [A, B]`` and ``ad_X Z = [X, Z]``, exactly

    h X + (i h^3 / 12) C + (h^5 / 240) [Y, C] + (i h^5 / 720) ad_X^2 C
        + h^7 ((i / 30240) ad_X^4 C - (1 / 30240) ad_X^2 [Y, C]
               + (1 / 7560) [Y, ad_X^2 C] - (i / 6720) [Y, [Y, C]]);

the even orders vanish at the midpoint, and the h^7 coefficients are the
unique fit of these four shapes to the Dyson series of ``X + s Y`` (a
sympy expansion of ``log U``).  Expanded in ``t_m`` (Jacobi with ``[C, C]
= 0`` gives ``[A, [B, C]] = [B, [A, C]]``), the generator is one real
combination of eleven Hermitian matrices, one per monomial ``h^p t_m^q``:
``h, h t_m, h^3, h^5 t_m^(0..2), h^7 t_m^(0..4)``.  They are formed once
per propagation, and no ``H(t)`` is evaluated.

The adaptive loop works in blocks.  A block is a run of up to
``_BLOCK_STEPS`` (128) steps from the last accepted time, its starts one
running sum, the step that reaches the next end time clipped there.  Its
steps are graded by the error growth the last block measured: a step's
error over ``h^9`` grows as ``exp(9 lambda s)`` along the sweep, read off
the last block's first and last steps, and the steps of the next block
shrink as ``exp(-lambda s)``, ``t_j = t_0 + log(1 + lambda |h| j) /
lambda``, within ``_MAX_SHRINK`` and ``_MAX_GROWTH`` of the first step; a
block right after a rejection does not grow.  The block is capped (below)
as a whole: the caps of all its steps and members are one array
expression, the steps over their cap are shortened, the later starts move
with them, and the caps are read again until none binds.  The generators
of every step of the block (the full step and its two halves, for every
member) are formed at once, by one ``(3K, 11) @ (11, m 2n^2)`` product,
and one stacked ``eigh`` exponentiates all 3Km of them: at dimensions up
to 8 the per-call overhead, not the arithmetic, is what costs.  A 2 x 2
stack (the fundamental pair of the Lax flow, ``lz2``) takes Rodrigues'
closed form instead, entry by entry over the stack.  The step-doubling
error estimate is the Richardson one of the eighth-order generator,
``|U_half - U_full| / (2^8 - 1)``, one entry per step.  The longest prefix
of steps that each meet the tolerance is accepted and multiplied onto U; the
controller then restarts from the first rejected step, shrunk by the usual
factor, and the exponentials of the steps after it are discarded.  A block
starts at ``_FIRST_BLOCK_STEPS`` steps, doubles after it is accepted whole
and halves after a rejection.  A run may pass through several end times
ordered away from its start: the step that reaches one is clipped there,
its propagator recorded, and the run goes on with the step size and
grading it had, so one sweep yields the propagators to every end time.

The Richardson estimate is faithful only while a step turns the relative
phase of the levels that ``[A, B]`` couples by less than 2 pi; beyond that
the full and half-step propagators can agree while both are wrong.  So
every step is also capped at ``h g(t_m) <= 2 pi`` at its own midpoint
``t_m``, with the gap ``g`` estimated as ``(|[H, [H, C]]| / |C|)^(1/2)``
from the basis, a quartic in ``t_m`` under the square roots.  A capped
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
``[-T, T]`` is then one sweep of ``[0, T]`` on the stack
``(A, -A), (B, B)``.

Every catalog base pair is chiral: a signed permutation P of the levels
fixes B and maps A to -A (for ``lz2`` P = Z; for the bow-ties it swaps the two
flat levels and flips the sign of every sweeping one), so G = P F P^T.
Before stepping a stack, each later member is tested against member 0:
when a signed permutation maps member 0's pair onto it, it is not stepped
but formed from member 0's propagator.  A level may only go to one with
the same diagonals, the signs follow a spanning tree of the strongest
couplings, and more than ``_MAX_PERMUTATIONS`` candidate permutations
mean no match.  The match is accepted within roundoff: a mismatch ``dA,
dB`` moves the member's propagator by at most ``|dA| |t1 - t0| + |dB|
|t1 - t0| (|t0| + |t1|) / 2`` over the span (Duhamel), and that must stay
below ``_MATCH_FRACTION`` of the tolerance over the whole span of the
run, matched once per run; the bases that ``unlift`` recovers keep the
mirror symmetry of the lifted pair bit for bit.  The fold of a chiral
pair then steps one member, half the matrices of every ``eigh``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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

# Richardson: the two half steps of the eighth-order generator carry 2^-8
# of the full step's error, and a step's error scales as h^9
_RICHARDSON = 2.0 ** 8 - 1.0
_STEP_EXPONENT = 1.0 / 9.0

# the generator is one real combination of this many basis matrices, one
# per monomial h^p t_m^q: h, h t_m, h^3, h^5 t_m^(0..2), h^7 t_m^(0..4)
_BASIS_SIZE = 11

# a graded block's last step lies within these factors of its first
# (shrunk by up to _MAX_SHRINK, grown by up to _MAX_GROWTH); step errors
# below _ERROR_FLOOR are roundoff and grade nothing
_ERROR_FLOOR = 1e-14
_MAX_SHRINK = 8.0
_MAX_GROWTH = 2.0

# a capped step that misses the cap at its own midpoint is shortened by at
# least this factor per pass
_CAP_SHRINK = 0.999

# smallest step, as a fraction of the span, before the adaptive driver
# declares divergence: a run at that step would need 10^7 steps to finish
_MIN_STEP_FRACTION = 1e-7

# a member formed from member 0 by a signed level permutation differs from
# its own run by at most this fraction of atol + rtol over the span
_MATCH_FRACTION = 1e-3

# most level permutations the member match tries: every level may only go
# to one whose diagonals it shares, and 6! covers six interchangeable ones
_MAX_PERMUTATIONS = 720


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


def _commutator(a, b):
    # unchecked, on matrices or stacks of them
    return a @ b - b @ a


def _step_generators(pair, t0, t1=None):
    """A map ``(t, h) -> (3, ..., m, n, n)`` of step generators, and a step cap.

    ``pair`` is ``(A, B)``, matrices (``m = 1``) or stacks of ``m`` of
    them, taken as checked.  The stack holds the eighth-order generators of
    ``[t, t + h]``, ``[t, t + h/2]`` and ``[t + h/2, t + h]``, in that
    order, for each of the ``m`` members.  ``t`` and ``h`` are scalars,
    giving ``(3, m, n, n)``, or equal-shape arrays of the steps of a block,
    giving ``(3, K, m, n, n)`` for K steps, every step in one product.  The
    cap maps steps ``(t, h)``, scalars (a float) or equal-shape arrays (an
    array), to the largest step allowed there, ``2 pi`` over the coupled
    gap at the step's midpoint, the smallest over the members, every step
    and member in one expression.  Given ``t1``, a pair whose generators
    could overflow on ``[t0, t1]`` is refused before any step.
    """
    a, b = (np.asarray(x, dtype=complex) for x in pair)
    a, b = a.reshape((-1,) + a.shape[-2:]), b.reshape((-1,) + b.shape[-2:])
    m, n, _ = a.shape
    # the basis holds eleven Hermitian matrices per member, one per monomial
    # h^p t_m^q of the generator, and each generator is one real combination
    # of them, formed for every step and member at once by one product on
    # the float view of the basis.  The basis is of degree 6 in (A, B)
    # (|A|^5 |B| for ad_A^4 C) and the cap quartic's coefficients are of
    # degree 8, so a large pair overflows them; that is refused by name,
    # not left to eigh
    with np.errstate(over="ignore", invalid="ignore"):
        c = _commutator(a, b)
        bc = _commutator(b, c)
        ac = _commutator(a, c)
        aac, bac, bbc = _commutator(a, ac), _commutator(b, ac), _commutator(b, bc)
        # ad_X^2 C by powers of t_m, X = A + t_m B; Jacobi with [C, C] = 0
        # gives [A, [B, C]] = [B, [A, C]]
        x2c = (aac, 2.0 * bac, bbc)
        x4c = _ad_affine(a, b, _ad_affine(a, b, x2c))
        x2bc = _ad_affine(a, b, _ad_affine(a, b, (bc,)))
        bx2c = [_commutator(b, x) for x in x2c]
        h7 = [1j / 30240.0 * x for x in x4c]
        for q in range(3):
            h7[q] = h7[q] - x2bc[q] / 30240.0 + bx2c[q] / 7560.0
        h7[0] = h7[0] - 1j / 6720.0 * bbc
        basis = np.stack([
            a, b, 1j / 12.0 * c, bc / 240.0 + 1j / 720.0 * aac, 1j / 360.0 * bac, 1j / 720.0 * bbc, *h7,
        ]).reshape(_BASIS_SIZE, m, n * n)
        caps = np.array([_cap_quartic(last, c_member)
                         for last, c_member in zip(np.stack((aac, bac, bbc), axis=1).reshape(m, 3, n * n), c)])
    if not (np.isfinite(basis).all() and np.isfinite(caps).all()):
        raise ValueError(
            f"A and B overflow the Magnus basis or its step cap: max|A| = {np.abs(a).max():.3e}, "
            f"max|B| = {np.abs(b).max():.3e} (its entries are of degree 6 in A and B, the cap's of 8)"
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
    basis_re = basis.reshape(_BASIS_SIZE, -1).view(float)
    c_sq, quartic = caps[:, 0], caps[:, 1:].T

    def generators(t, h):
        # row j of coef holds the coefficients of the generator of
        # [mid_j - step_j/2, mid_j + step_j/2]
        t = np.asarray(t, dtype=float)
        h = np.asarray(h, dtype=float)
        half = 0.5 * h
        coef = _pair_coefficients(np.stack((h, half, half)), np.stack((t + half, t + 0.5 * half, t + 1.5 * half)))
        out = coef.reshape(-1, _BASIS_SIZE) @ basis_re
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

    return generators, max_step


def _ad_affine(a, b, p):
    # [A + tau B, P(tau)] for P a polynomial in tau given by its coefficient
    # matrices, lowest power first; the result has one power more
    out = [_commutator(a, x) for x in p] + [0.0]
    for q, x in enumerate(p):
        out[q + 1] = out[q + 1] + _commutator(b, x)
    return out


def _pair_coefficients(step, mid):
    # the monomials h^p t_m^q of the step of length `step` around `mid`
    # that weigh the eleven basis matrices, stacked on a last axis
    h2 = step * step
    h3 = h2 * step
    h5 = h3 * h2
    h7 = h5 * h2
    mid2 = mid * mid
    return np.stack((step, step * mid, h3, h5, h5 * mid, h5 * mid2,
                     h7, h7 * mid, h7 * mid2, h7 * mid2 * mid, h7 * mid2 * mid2), axis=-1)


def _cap_quartic(last, c):
    # the gap g(t) is estimated as (|[H, [H, C]]| / |C|)^(1/2) (Frobenius,
    # H = H(t)); [H, [H, C]] = [A, [A, C]] + 2 t [B, [A, C]] + t^2 [B, [B, C]],
    # so |[H, [H, C]]|^2 is a quartic in t, from the Gram matrix of those
    # three rows of a member.  Returns |C|^2 and the quartic's
    # coefficients, highest power first
    gram = (last.conj() @ last.T).real
    return [float(np.vdot(c, c).real), float(gram[2, 2]), float(4.0 * gram[1, 2]),
            float(4.0 * gram[1, 1] + 2.0 * gram[0, 2]), float(4.0 * gram[0, 1]), float(gram[0, 0])]


def _block(max_step, t, t1, h, length, h_floor, grade):
    # the starts and steps of a block of up to `length` steps from t, and
    # where it ends.  The steps follow the error growth the last block
    # measured: step j spans log(1 + g j) to log(1 + g (j + 1)) in units of
    # h / g, so a block of g > 0 shrinks along its length and one of g < 0
    # grows.  The step that reaches t1 is clipped there and ends the block.
    # Every step over its cap is shortened to it, and by at least
    # _CAP_SHRINK, the later starts move with it, and the caps are read
    # again until none binds; a cap that grows along its step (as toward a
    # smaller gap) settles in a few passes.  A binding cap below the floor
    # ends the block before its step, or raises at the block's first step
    if grade:
        steps = h * np.diff(np.log1p(grade * np.arange(length + 1.0))) / grade
    else:
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


def _signed_permutation(source, target, t0, t1, tol):
    """``(take, sign)`` with ``target ~ P source P^T`` for a signed permutation P, or None.

    ``source`` and ``target`` are pairs ``(A, B)``; ``P M P^T`` is
    ``sign[p] sign[q] M[take[p], take[q]]`` at ``[p, q]``.  The match holds
    when the mismatch of the pairs meets the Duhamel bound
    ``|dA| |t1 - t0| + |dB| |t1 - t0| (|t0| + |t1|) / 2 <= _MATCH_FRACTION
    tol`` (Frobenius norms), which bounds the distance of the target's
    propagator over ``[t0, t1]`` from ``P F P^T``, F the source's.  A level
    may only go to one whose diagonals (A and B) match within that bound;
    the signs come from a spanning tree of the strongest couplings; more
    than ``_MAX_PERMUTATIONS`` level permutations mean no match.
    """
    # Python floats: a span beyond float range is inf here without a
    # warning, and is left to the generators' span refusal
    t0, t1 = float(t0), float(t1)
    span = abs(t1 - t0)
    weights = (span, span * 0.5 * (abs(t0) + abs(t1)))
    if not math.isfinite(weights[1]):
        return None
    budget = _MATCH_FRACTION * tol
    n = len(source[0])
    with np.errstate(over="ignore", invalid="ignore"):
        gap = sum(w * np.abs(np.diagonal(y).real[:, None] - np.diagonal(x).real)
                  for w, x, y in zip(weights, source, target))
        allowed = [np.flatnonzero(row <= budget).tolist() for row in gap]

        def extend(take):
            # every permutation that sends each level to an allowed one
            if len(take) == n:
                yield take
                return
            for j in allowed[len(take)]:
                if j not in take:
                    yield from extend(take + [j])

        candidates = list(itertools.islice(extend([]), _MAX_PERMUTATIONS + 1))
        if len(candidates) > _MAX_PERMUTATIONS:
            return None
        for take in candidates:
            moved = [x[np.ix_(take, take)] for x in source]
            strength = sum(w * np.abs(x) for w, x in zip(weights, moved))
            agree = sum(w * (y * x.conj()).real for w, x, y in zip(weights, moved, target))
            # Prim: each level joins the tree by its strongest coupling to
            # it, whose sign relation fixes its sign; a level coupled to
            # none keeps any sign
            sign = np.ones(n)
            inside = [0]
            outside = list(range(1, n))
            while outside:
                links = strength[np.ix_(inside, outside)]
                p, q = np.unravel_index(int(links.argmax()), links.shape)
                p, q = inside[p], outside.pop(q)
                sign[q] = sign[p] if agree[p, q] >= 0.0 else -sign[p]
                inside.append(q)
            outer = np.outer(sign, sign)
            mismatch = sum(w * np.linalg.norm(y - outer * x) for w, x, y in zip(weights, moved, target))
            if mismatch <= budget:
                return np.array(take), sign
    return None


def _propagate(a, b, t0, ends, settings):
    # the adaptive loop over blocks of steps on checked (m, n, n) stacks, from
    # t0 through the end times `ends` (ordered away from t0); one propagator
    # per end time and member, (len(ends), m, n, n).  A member that a signed
    # level permutation P maps member 0 onto is not stepped but formed from
    # member 0's F as P F P^T
    t1 = ends[-1]
    tol = settings.atol + settings.rtol
    formed = {}
    for j in range(1, len(a)):
        match = _signed_permutation((a[0], b[0]), (a[j], b[j]), t0, t1, tol)
        if match is not None:
            formed[j] = match
    stepped = [j for j in range(len(a)) if j not in formed]
    generators, max_step = _step_generators((a[stepped], b[stepped]), t0, t1)
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    u = np.eye(a.shape[-1], dtype=complex)
    out = np.empty((len(ends),) + a.shape, dtype=complex)
    t = t0
    h_prop = span * 1e-3
    h_floor = _MIN_STEP_FRACTION * abs(span)
    length = _FIRST_BLOCK_STEPS
    # the growth rate of the step error along the sweep, per unit of
    # distance, over 9: steps that shrink as exp(-rate s) keep it level
    rate = 0.0
    for k, end in enumerate(ends):
        while t != end:
            grade = min(max(rate * abs(h_prop), (1.0 / _MAX_GROWTH - 1.0) / length),
                        (_MAX_SHRINK - 1.0) / length)
            starts, steps, s = _block(max_step, t, end, h_prop, length, h_floor, grade)
            full, first, second = _expmi(generators(starts, steps))
            half = second @ first
            err = np.abs(half - full).reshape(len(steps), -1).max(axis=1) / _RICHARDSON
            # accept the longest prefix of steps that each meet the tolerance
            passed = err <= tol
            accepted = len(steps) if passed.all() else int(passed.argmin())
            if accepted:
                u = _ordered_product(half[:accepted]) @ u
                # the accepted steps end where the first rejected one starts
                t = float(starts[accepted] if accepted < len(steps) else s)
            # the step that reaches an end time is clipped there and sets
            # neither the next step nor the error growth
            last = accepted if accepted < len(steps) else len(steps) - 1 - (t == end and len(steps) > 1)
            if last > 0 and min(err[0], err[last]) > _ERROR_FLOOR:
                # a step's error over h^9 grows as exp(9 rate s) along the sweep
                growth = (err[last] / err[0]) * (steps[0] / steps[last]) ** 9
                distance = abs(starts[last] + 0.5 * steps[last] - starts[0] - 0.5 * steps[0])
                rate = math.log(growth) * _STEP_EXPONENT / distance
            if accepted == len(steps):
                if t != end or len(steps) > 1:
                    e = float(err[last])
                    h_prop = steps[last] * min(2.5, max(0.2, 0.9 * (tol / max(e, 1e-300)) ** _STEP_EXPONENT))
                length = min(2 * length, _BLOCK_STEPS)
            else:
                # restart from the first rejected step; the next block may
                # not grow
                e = float(err[accepted])
                h_prop = steps[accepted] * max(0.1, 0.9 * (tol / e) ** _STEP_EXPONENT)
                rate = max(rate, 0.0)
                length = max(length // 2, _FIRST_BLOCK_STEPS)
            # accepted steps that keep shrinking (toward a finite-time
            # singularity) stop here too, not only rejected ones
            if abs(h_prop) < h_floor and t != t1:
                raise IntegrationDivergedError(f"magnus step underflow at t = {t!r}", t)
        out[k, stepped] = u
    for j, (take, sign) in formed.items():
        out[:, j] = np.outer(sign, sign) * out[:, 0][:, take[:, None], take]
    return out


def _end_times(t0, t1):
    # t1 as a list of floats ordered away from t0, and whether it was one
    if np.ndim(t1) == 0:
        ends, single = [t1], True
    else:
        ends, single = list(t1), False
    if not ends:
        raise ValueError("t1 must name at least one end time")
    if not (np.isfinite(t0) and np.isfinite(ends).all()):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    ends = [float(end) for end in ends]
    direction = np.sign(ends[-1] - t0)
    if direction == 0.0 or np.any(np.diff([t0] + ends) * direction <= 0.0):
        raise ValueError(f"the end times must differ from t0 and be ordered away from it, got {t0} and {t1}")
    return ends, single


class EndTimes(tuple):
    """End times for ``propagate_unitary``, ordered away from ``t0``.

    Any sequence of floats does as ``t1``; this one also converts to a
    float, its last end time, for code that reads ``t1`` as the end of the
    span (perfbench's span tracer).
    """

    def __float__(self):
        return float(self[-1])


def propagate_unitary(pair, t0, t1, settings=None):
    """Propagator ``U(t1, t0)`` of ``i dU/dt = H(t) U`` for ``H(t) = A + t B``.

    ``pair`` is ``(A, B)``, Hermitian matrices or stacks of shape
    ``(m, n, n)``; the ``m`` members of a stack share every step and the
    result has shape ``(m, n, n)``.  ``t1`` may be a sequence of end times
    ordered away from ``t0``: one adaptive run passes through them all,
    each step that reaches one is clipped there without resetting the step
    size, and the result holds one propagator from ``t0`` per end time on a
    leading axis.  A callable ``H(t)`` is refused with a ``TypeError`` that
    names the pair form.  Each step takes the eighth-order Magnus generator
    in closed form (module docstring), a real combination of eleven
    matrices formed once per call, under step-doubling error control
    (Richardson divisor ``2^8 - 1``, step exponent ``1 / 9``, the error the
    largest over the members).  The adaptive loop proposes a block of up to
    128 steps graded by the error growth the last block measured, the last
    clipped at the end time, and settles the step cap for the block as a
    whole: each step is kept below one turn of the relative phase of the
    levels ``[A, B]`` couples at its own midpoint, where the error estimate
    stops being faithful, and a shortened step moves the later ones until
    every cap holds.  It then exponentiates the full-step and two half-step
    generators of every step and member of the block as one stacked
    ``eigh`` (Rodrigues' closed form at n = 2), accepts the longest prefix
    of steps that each meet the tolerance and restarts from the first
    rejected one, discarding the rest of the block.

    An unstacked pair whose end times all lie across 0 from ``t0`` is
    folded there: ``U(t1, t0) = F(t1, 0) G(-t0, 0)^dag`` with F the
    propagator of ``(A, B)`` and G that of the mirror ``(-A, B)``, both
    outward from 0 in the direction of ``t1 - t0``.  F and G are propagated
    as one stack up to ``min(|t0|, |t1|)`` and the longer one is finished
    alone, so the interval costs one sweep of its longer half.  In any
    stack, a member that a signed level permutation P maps member 0's pair
    onto, within a small fraction of the tolerance over the whole span
    (module docstring), is not stepped but formed as ``P F P^T``: for a
    chiral pair, every catalog base, the fold steps F alone.

    Every update is an exact exponential of a Hermitian generator, so the
    result is unitary to roundoff regardless of tolerance; the tolerances
    control phase/transition accuracy only.  ``A`` and ``B`` (each member)
    are checked once per call: a non-finite entry raises ``ValueError``, a
    Hermiticity defect above ``1e-12 max|M|`` ``NonHermitianError``.
    Non-finite or unordered end times and unequal shapes raise
    ``ValueError``.  A span that would overflow a step generator, and a
    proposed step or step cap below ``1e-7`` of the span (accepted or not,
    so a run toward an unbounded gap ends early), raise
    ``IntegrationDivergedError``.
    """
    try:
        a, b = pair
    except TypeError:
        raise TypeError(f"propagate_unitary takes the pair (A, B) of H(t) = A + t B, "
                        f"not a {type(pair).__name__}") from None
    if settings is None:
        settings = OdeSettings()
    ends, single = _end_times(t0, t1)
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    stacked = a.ndim != 2 or b.ndim != 2
    a, b = _hermitian_members(a, "A"), _hermitian_members(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: A {a.shape} vs B {b.shape}")
    if stacked or t0 * ends[0] >= 0.0:
        u = _propagate(a, b, t0, ends, settings)
    else:
        u = _folded(a, b, t0, ends, settings)
    u = u if stacked else u[:, 0]
    return u[0] if single else u


def _folded(a, b, t0, ends, settings):
    # i dW/ds = (-A + s B) W for W(s) = U(-s, 0), so U(0, t0) = G(-t0, 0)^dag;
    # F runs through every end time, G to -t0, as one stack up to the
    # nearer of -t0 and the last end time
    inner = math.copysign(min(abs(t0), abs(ends[-1])), ends[-1])
    stops = [end for end in ends if abs(end) < abs(inner)] + [inner]
    both = _propagate(np.concatenate((a, -a)), np.concatenate((b, b)), 0.0, stops, settings)
    f, g = both[:, :1], both[-1, 1]
    rest = [end for end in ends if abs(end) > abs(inner)]
    if rest:
        # F from inner on alone; inner is one of F's end times only if it is an end
        f = np.concatenate((f if inner in ends else f[:-1], _propagate(a, b, inner, rest, settings) @ f[-1]))
    elif abs(t0) > abs(inner):
        g = _propagate(-a, b, inner, [-t0], settings)[0, 0] @ g
    return f @ g.conj().T


def unitarity_defect(u):
    """Max entry of ``|U^dag U - I|``."""
    u = _as_complex_square(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())

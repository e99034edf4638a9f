"""Crossing-schedule scattering: localized level crossings on a deformed path.

With a valid flow partner E, the sweep can be rerouted through a
three-segment rectangular detour in the (t, eps) plane whose corners sit
at |t| = R with R formally infinite.  Along the detour every level
crossing is localized, and each is one su(2) rotation
``exp(-i beta J_x)``, Majorana's solution applied locally.
``lifted_smatrix`` multiplies the rotation amplitudes, latest crossing
leftmost, and returns ``S = |prod_e exp(-i beta_e J_x^e)|^2``
(``S[i, j] = P(j -> i)``).  Where two paths of events join a pair of
levels (``bowtieN`` with same-sign slopes) the product keeps their
interference, which is not derived but held to propagation by a test.
``compose`` multiplies the probability blocks ``|exp(-i beta J_x)|^2``,
exact only where every pair of levels is joined by at most one path of
events (``path_counts``).

Near a crossing its coupled levels see ``tau diag(s) + G``; with ``J_z``
the slopes about their midpoint in units of their common spacing and
``c J_x = G``, the block is an su(2) image
exactly when ``[J_x, J_y] = i J_z`` for ``J_y = -i [J_z, J_x]``, and
``cos(beta) = 2u - 1`` with ``u = exp(-pi c^2 / (2 spacing))``.  A pair is
spin 1/2, a sloped pair meeting a flat level midway spin 1, and levels
sharing a slope need no special case: the rotation leaves the "dark"
combination that ``G`` does not couple in place (for the shipped families
it stays diagonal in the event's eigenframe; the oracle validates this).

``lifted_smatrix``, the CLI's exact route, lifts the closed-form events of
a catalog model's base (lz2's one crossing, ``schedule_bowtieN``) through
the model's representation: the image of a rotation rotates about the
image of ``J_x``.  ``derive_schedule_generic``, the tests' independent
reference, finds the events of a partnered model on its own k x k detour
at finite R: it brackets every sign change of a level gap in a sampled
segment diagonal and refines it with ``brentq``.  One union-find
(``_components``) groups crossings within ``_CLUSTER_TOL`` of the segment
length of one another that share a level into a cluster, adds the
degenerate companions of its levels and splits it by the couplings of the
path generator into components, each one su(2) event (or
``UnsupportedCrossingError``); crossing pairs outside every component
are trivial events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

import numpy as np

from .laxflow import clamp_probabilities, rotation, survival_weight
from .models import SU2, AffineModel, SingularPartnerError, bowtieN_lists, lift

# samples per path segment used to bracket gap sign changes
_SEGMENT_SAMPLES = 4096
# relative width for grouping simultaneous crossings into one cluster
_CLUSTER_TOL = 1e-6
# couplings below this (relative to the cluster scale) count as absent
_COUPLING_TOL = 1e-12
# relative tolerance of the su(2) test of a coupled block
_PATTERN_TOL = 1e-6

# least detour half-width R, formally infinite; finite-R effects scale as 1/R^2
R_SCALE = 1e8
# detour height in units of (max diagonal slope) * R
RAIL_FACTOR = 4.0
# factor kept between the largest generator entry on the detour and the
# largest float
_HEADROOM = 256.0
_FLOAT_MAX = float(np.finfo(float).max)


class UnsupportedCrossingError(RuntimeError):
    """A coupled crossing cluster is not the image of an su(2) rotation."""


@dataclass(frozen=True)
class CrossingEvent:
    """One localized crossing: an su(2) rotation of its levels.

    ``levels`` are 1-based diabatic indices; ``jz`` holds their ``J_z``
    values on the half-integer ladder and ``jx`` (rows) the coupling in
    units of its strength c, ``J_x = G / c``, both in the order of
    ``levels``.  The local block is ``|exp(-i beta J_x)|^2`` with
    ``cos(beta) = 2 u_eff - 1``.  With j the largest ``|J_z|``,
    ``delta_eff = c sqrt(j / 2)`` and ``slope_eff`` = j times the slope
    spacing of the coupled levels (half their slope span), so ``exponent``
    is ``pi c^2 / (2 spacing)``: for a pair ``delta_eff`` is the coupling
    and ``slope_eff`` half the slope difference.  Build events with
    :meth:`from_block`.
    """

    index: int
    t_over_r: float
    eps_over_r: float
    levels: tuple
    delta_eff: float
    slope_eff: float
    jz: tuple
    jx: tuple

    def __post_init__(self):
        if not self.slope_eff > 0.0:
            raise ValueError("slope_eff must be positive")
        if self.delta_eff < 0.0:
            raise ValueError("delta_eff must be nonnegative")

    @classmethod
    def from_block(cls, index, t_over_r, eps_over_r, levels, slopes, coupling):
        """The event of ``levels`` with diagonal slopes and a Hermitian coupling block.

        Near the crossing the levels see ``tau diag(slopes) + G`` with G the
        off-diagonal part of ``coupling``.  With ``spacing`` the common
        ``|slope difference|`` of the coupled pairs, ``J_z = (diag(slopes) -
        mid) / spacing`` about the middle of the slope span and ``c J_x = G``,
        the block is an su(2) image exactly when ``[J_x, J_y] = i J_z`` for
        ``J_y = -i [J_z, J_x]``, up to dark combinations of levels that share
        a slope, which ``J_x`` and ``J_y`` both annihilate and the rotation
        leaves in place.  ``c^2`` is the least-squares solution and the
        relative residual must stay within ``_PATTERN_TOL``.  A block without
        coupling is a trivial event.  Anything else raises
        ``UnsupportedCrossingError`` naming the levels.
        """
        levels = tuple(int(l) for l in levels)
        s = np.asarray(slopes, dtype=float)
        g = np.array(coupling, dtype=complex)
        np.fill_diagonal(g, 0.0)
        # the solve runs on G / max|G|, so no coupling under- or overflows
        scale = float(np.abs(g).max())
        span = float(s.max() - s.min())
        mid = 0.5 * float(s.max() + s.min())
        gaps = np.abs(s[:, None] - s[None, :])[np.abs(g) > _PATTERN_TOL * scale]
        spacing = float(gaps.max()) if gaps.size else span
        if not (spacing > 0.0 and gaps.min(initial=spacing) >= (1.0 - _PATTERN_TOL) * spacing):
            raise UnsupportedCrossingError(
                f"crossing levels {list(levels)} are not an su(2) image: "
                "their coupled pairs differ in slope by unequal or zero steps"
            )
        jz = (s - mid) / spacing
        c_sq = 0.0
        if gaps.size:
            # real division part by part: a complex one by a subnormal scale overflows
            g = g.real / scale + 1j * (g.imag / scale)
            jy_c = -1j * (jz[:, None] - jz[None, :]) * g
            comm = g @ jy_c - jy_c @ g
            # dark combinations, the common kernel of J_x and J_y, take no
            # part in [J_x, J_y]; without them `lit` is the identity exactly
            _, sv, vh = np.linalg.svd(np.vstack((g, jy_c)))
            dark = vh[sv <= _PATTERN_TOL * sv[0]]
            lit = np.eye(len(s)) - dark.conj().T @ dark
            target = 1j * lit @ np.diag(jz) @ lit
            # least squares for c^2 in [G, c J_y] = c^2 target
            c_sq = float(np.vdot(target, comm).real / np.vdot(target, target).real)
            residual = np.linalg.norm(comm - c_sq * target) / np.linalg.norm(comm)
            if not residual <= _PATTERN_TOL:
                raise UnsupportedCrossingError(
                    f"crossing levels {list(levels)} are not an su(2) image: "
                    f"[J_x, J_y] misses i J_z by {residual:.1e} relative"
                )
            g = g / math.sqrt(c_sq)
        jz = np.round(2.0 * jz) / 2.0
        # delta_eff = c sqrt(j / 2): exactly the coupling of a pair or of a
        # spin-1 block's sloped levels
        delta_eff = scale * math.sqrt(c_sq * 0.5 * float(np.abs(jz).max()))
        return cls(index, float(t_over_r), float(eps_over_r), levels, delta_eff, 0.5 * span,
                   tuple(jz.tolist()), tuple(map(tuple, g.tolist())))

    @property
    def kind(self) -> str:
        """``"trivial"`` without coupling, else named by the size 2j + 1 of the rotation."""
        if self.delta_eff == 0.0:
            return "trivial"
        size = round(2.0 * max(abs(m) for m in self.jz)) + 1
        return {2: "two-level", 3: "three-level"}.get(size, f"{size}-level")

    @property
    def flat_levels(self) -> Optional[tuple]:
        """The levels at ``J_z = 0`` when two or more share it, else None."""
        flats = tuple(l for l, m in zip(self.levels, self.jz) if m == 0.0)
        return flats if len(flats) > 1 and self.delta_eff > 0.0 else None

    @property
    def bright_weights(self) -> Optional[tuple]:
        """Each flat level's share of the flat levels' coupling, else None."""
        if self.flat_levels is None:
            return None
        flat = [a for a, m in enumerate(self.jz) if m == 0.0]
        weights = (np.abs(np.array(self.jx)[flat]) ** 2).sum(axis=1)
        return tuple((weights / weights.sum()).tolist())

    @property
    def exponent(self) -> float:
        return math.pi * self.delta_eff ** 2 / self.slope_eff

    @property
    def u_eff(self) -> float:
        return math.exp(-self.exponent)


def default_path(model: AffineModel):
    """Rectangular detour: up at t = -R, across, down at t = +R.

    Returns the three segments as ``((t0, eps0), (t1, eps1))`` pairs, with
    R = R_SCALE * max(1, |eps0| / min|B_ii|) over the nonzero slopes: the
    crossings on the vertical segments sit at |eps| of order min|B_ii| * R,
    so the detour must start far below them at any nominal eps.  The rail
    height is RAIL_FACTOR * max|B_ii| * R on the side of the model's
    nominal eps (the partner pole at eps = 0 is never crossed).  The
    endpoints (-R, eps0) and (+R, eps0) match the undeformed sweep, so the
    detour only reroutes the interior.  An |eps0| that would bring the
    generator entries on the detour within a factor ``_HEADROOM`` of the
    largest float raises ``ValueError`` naming the largest |eps| the detour
    holds for the model.
    """
    eps0 = float(model.eps or 0.0)
    if eps0 == 0.0:
        raise SingularPartnerError(
            "path deformation needs eps != 0 (partner pole at eps = 0)"
        )
    slopes = np.abs(np.diag(model.b).real)
    smax = float(slopes.max())
    if smax == 0.0:
        raise ValueError("model has no sweeping level")
    smin = float(slopes[slopes > 0.0].min())
    # generator entries on the detour reach about r * cmax * (RAIL_FACTOR *
    # smax + 1); the gaps and the root finder's products need headroom
    cmax = max(float(np.abs(m).max()) for m in (model.a1, model.b, model.e_eps, model.e1))
    eps_max = smin * (_FLOAT_MAX / (_HEADROOM * R_SCALE * cmax * (RAIL_FACTOR * smax + 1.0)))
    if abs(eps0) > eps_max:
        raise ValueError(
            f"eps = {eps0!r} is too far from the origin for the detour: "
            f"it holds |eps| <= {eps_max!r} for this model"
        )
    r = R_SCALE * max(1.0, abs(eps0) / smin)
    rail = math.copysign(RAIL_FACTOR * smax * r, eps0)
    return (
        ((-r, eps0), (-r, rail)),
        ((-r, rail), (r, rail)),
        ((r, rail), (r, eps0)),
    )


def compose(schedule, k: int) -> np.ndarray:
    """Product of the events' probability blocks ``|exp(-i beta J_x)|^2``, latest leftmost.

    Exact only where ``path_counts`` is at most 1 (module docstring).  An
    empty schedule composes to the identity.
    """
    total = np.eye(k)
    for event in schedule:
        jx = _embedded_jx(event, k)
        idx = [l - 1 for l in event.levels]
        s = np.eye(k)
        beta = math.acos(2.0 * event.u_eff - 1.0)
        s[np.ix_(idx, idx)] = np.abs(rotation(jx[np.ix_(idx, idx)], beta)) ** 2
        total = s @ total
    return clamp_probabilities(total)


def path_counts(schedule, k: int) -> np.ndarray:
    """Number of event paths joining each (end, start) pair of levels.

    The integer product of ``I + incidence`` over the events, latest
    leftmost, where an event joins every pair of levels that its ``J_x``
    connects (a dark level of the rotation too, a trivial event none).
    ``compose`` is exact only where every entry is at most 1: with two paths
    the true probability carries their interference, which a product of
    probability blocks drops (same-sign ``bowtieN`` slopes).
    """
    total = np.eye(k, dtype=np.int64)
    for event in schedule:
        step = np.eye(k, dtype=np.int64)
        for comp in _coupled_components(_embedded_jx(event, k)):
            step[np.ix_(comp, comp)] = 1
        total = step @ total
    return total


def _embedded_jx(event: CrossingEvent, k: int) -> np.ndarray:
    # the event's J_x as a k x k matrix, zero off its levels, which must be
    # distinct and in 1..k
    idx = [int(l) - 1 for l in event.levels]
    if len(set(idx)) != len(idx) or any(not 0 <= i < k for i in idx):
        raise ValueError(f"malformed level list {event.levels} for dimension {k}")
    jx = np.zeros((k, k), dtype=complex)
    jx[np.ix_(idx, idx)] = event.jx
    return jx


def _coupled_components(j):
    # the sets of two or more (0-based) levels that J's nonzero pattern connects
    edges = zip(*np.nonzero(np.abs(j) > _COUPLING_TOL * np.abs(j).max(initial=0.0)))
    return [c for c in _components(range(len(j)), edges) if len(c) > 1]


def lifted_smatrix(model: AffineModel):
    """Exact S of a catalog model from its base's closed-form crossing events.

    lz2 has one event, ``J_x = X_2`` at its survival weight u, the bow tie
    those of ``schedule_bowtieN``.  ``S = |U|^2`` for the product U, latest
    leftmost, of the rotations ``exp(-i beta lift(J_x, model.rep))``,
    ``cos(beta) = 2u - 1``, one per coupled component of the image.
    Returns S and the number of base events.
    """
    if model.has_partner:
        schedule = schedule_bowtieN(model.delta, model.slope, model.eps)
        base = [(_embedded_jx(e, len(schedule) // 2 + 2), e.u_eff) for e in schedule]
    else:
        base = [(SU2[0], survival_weight(model.delta, model.slope))]
    total = np.eye(model.k, dtype=complex)
    for jx, u in base:
        # real_if_close, not .real: the adjoint image of a real J_x is complex
        j = np.real_if_close(lift(jx, model.rep))
        step, beta = np.eye(model.k, dtype=complex), math.acos(2.0 * u - 1.0)
        for idx in _coupled_components(j):
            step[np.ix_(idx, idx)] = rotation(j[np.ix_(idx, idx)], beta)
        total = step @ total
    return np.abs(total) ** 2, len(base)


def _pair_event(index, t_over_r, eps_over_r, level_pair, coupling, slope_eff):
    # a crossing pair, flatter level first, whose slopes differ by 2 slope_eff
    return CrossingEvent.from_block(index, t_over_r, eps_over_r, level_pair,
                                    (0.0, 2.0 * slope_eff), [[0.0, coupling], [coupling, 0.0]])


def schedule_bowtie3(delta: float, a: float, eps: float):
    """The 3-level bow tie's two crossings: ``schedule_bowtieN`` with one sweeping level."""
    if not a > 0:
        raise ValueError(f"slope a must be positive, got {a}")
    return schedule_bowtieN((delta,), (a,), eps)


def schedule_bowtieN(deltas, slopes, eps: float):
    """Crossing schedule of the k-level bow tie.

    For eps > 0, first pass at t = -R in ascending |slope| order: sweeping
    level i+2 meets flat level 2 when its slope is positive, flat level 1
    when negative.  Second pass at t = +R in descending order with the flat
    roles exchanged.  The model is symmetric under eps -> -eps and flat
    levels 1 <-> 2, so eps < 0 swaps them in every event.  eps = 0, the
    partner's pole, has no schedule (the numeric route covers it).
    """
    deltas, slopes = bowtieN_lists(deltas, slopes)
    if eps == 0.0:
        raise SingularPartnerError("bowtie schedule undefined at eps = 0")
    events = []
    for t_over_r, passes in ((-1.0, range(len(slopes))), (1.0, reversed(range(len(slopes))))):
        for i in passes:
            # level 2 for a rising level, first pass, eps > 0; a sign flip swaps it
            flat = 2 if (slopes[i] > 0) ^ (t_over_r > 0) ^ (eps < 0) else 1
            mag = abs(slopes[i])
            events.append(_pair_event(len(events) + 1, t_over_r, math.copysign(mag, eps),
                                      (flat, i + 3), abs(deltas[i] / slopes[i]), 0.5 / mag))
    return events


def schedule_su3six(delta: float, a: float, eps: float):
    """The seven-crossing schedule of the 6-level family (eps > 0 only).

    Non-trivial crossings: two pairwise ones between the inner flat level
    and the two equal-slope sweeping levels, and two three-level ones
    where the double-rate level meets an outer flat level and a sweeping
    level simultaneously.  The middle rail crossing and the two outer
    ones carry no coupling.
    """
    if not a > 0:
        raise ValueError(f"slope a must be positive, got {a}")
    if not float(eps) > 0.0:
        raise ValueError("su3six schedule is only defined for eps > 0")
    d = abs(float(delta))
    rail = RAIL_FACTOR * 2.0 * a
    # a sloped pair meeting a flat level midway, both coupled to it
    g = math.sqrt(2.0) * d / a
    three = ((-1.0 / a, 1.0 / a, 0.0), [[0.0, 0.0, g], [0.0, 0.0, g], [g, g, 0.0]])
    return [
        _pair_event(1, -1.0, a, (2, 4), d / a, 0.5 / a),
        CrossingEvent.from_block(2, -1.0, a, (6, 3, 5), *three),
        _pair_event(3, -1.0, 3.0 * a, (3, 4), 0.0, 0.5 / a),
        _pair_event(4, 0.0, rail, (2, 6), 0.0, a),
        _pair_event(5, 1.0, 3.0 * a, (1, 5), 0.0, 0.5 / a),
        _pair_event(6, 1.0, a, (2, 5), d / a, 0.5 / a),
        CrossingEvent.from_block(7, 1.0, a, (1, 6, 4), *three),
    ]


# --- generic derivation -----------------------------------------------------


class _Segment:
    """One straight piece of the detour with unit-speed parametrization."""

    def __init__(self, model, p0, p1):
        t0, e0 = p0
        t1, e1 = p1
        self.model = model
        self.t0, self.e0 = float(t0), float(e0)
        dt, de = t1 - self.t0, e1 - self.e0
        self.length = abs(dt) + abs(de)
        self.rate_t = dt / self.length
        self.rate_e = de / self.length

    def point(self, tau):
        return self.t0 + self.rate_t * tau, self.e0 + self.rate_e * tau

    def generator(self, tau):
        t, e = self.point(tau)
        g = np.zeros((self.model.k, self.model.k), dtype=complex)
        if self.rate_t != 0.0:
            g += self.rate_t * self.model.hamiltonian(t, e)
        if self.rate_e != 0.0:
            g += self.rate_e * self.model.partner(t, e)
        return g

    def diag(self, tau):
        return np.diag(self.generator(tau)).real

    def diag_slope(self, tau):
        t, e = self.point(tau)
        m = self.model
        out = np.zeros(m.k)
        if self.rate_t != 0.0:
            out += self.rate_t * (
                self.rate_t * np.diag(m.b).real
                + self.rate_e * np.diag(m.a1).real
            )
        if self.rate_e != 0.0:
            out += self.rate_e * (
                self.rate_t * np.diag(m.e1).real
                + self.rate_e * np.diag(m.de0_of(e)).real
            )
        return out


def _degenerate_pairs(samples):
    """Level pairs whose diagonals coincide along the whole segment."""
    scale = max(float(np.abs(samples).max()), 1.0)
    k = samples.shape[1]
    pairs = set()
    for i in range(k):
        for j in range(i + 1, k):
            if np.abs(samples[:, i] - samples[:, j]).max() <= 1e-9 * scale:
                pairs.add((i, j))
    return pairs


def brentq(f, a, b, xtol):
    """Root of ``f`` in a sign-changing bracket ``[a, b]`` by Brent's method.

    The steps and floating-point operations of ``scipy.optimize.brentq``
    (rtol four machine epsilons, at most 100 iterations), so roots and
    function calls are bit-equal to it; written out because importing
    ``scipy.optimize`` takes longer than a whole cold CLI command.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"brentq: the function is NaN at x={x!r}")
        return fx

    rtol = 4 * 2.0**-52
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"brentq: no convergence in 100 iterations, last x={xcur!r}")


def _find_pair_crossings(segment, taus, samples, degenerate):
    """Transversal zero crossings of every diagonal gap on the segment."""
    k = samples.shape[1]
    crossings = []
    for i in range(k):
        for j in range(i + 1, k):
            if (i, j) in degenerate:
                continue

            def gap_at(tau, i=i, j=j):
                d = segment.diag(tau)
                return float(d[i] - d[j])

            gap = samples[:, i] - samples[:, j]
            signs = np.sign(gap)
            for n in range(len(taus) - 1):
                if signs[n] == 0.0:
                    # crossing sitting exactly on a grid sample
                    crossings.append((i, j, float(taus[n])))
                    continue
                if signs[n] * signs[n + 1] >= 0.0:
                    continue
                root = brentq(
                    gap_at, taus[n], taus[n + 1], xtol=1e-9 * segment.length
                )
                crossings.append((i, j, float(root)))
            if signs[-1] == 0.0:
                crossings.append((i, j, float(taus[-1])))
    return crossings


def _components(nodes, edges):
    """Connected components (union-find), each sorted, ordered by least member."""
    nodes = sorted(nodes)
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for n in nodes:
        groups.setdefault(find(n), []).append(n)
    return list(groups.values())


def _cluster_events(pairs, gmat, slopes, loc, degenerate):
    """Events of one crossing cluster: coupled blocks first, then free pairs.

    ``pairs`` are the cluster's crossing level pairs (0-based), ``gmat`` and
    ``slopes`` the path generator and its diagonal slopes at the cluster,
    ``loc`` its ``(t/R, eps/R)`` and ``degenerate`` the identically equal
    level pairs of the segment.  Event indices are left at 0.
    """
    levels = {l for pair in pairs for l in pair}
    # degenerate companions ride along with any member they shadow
    for group in _components(range(len(slopes)), degenerate):
        if levels.intersection(group):
            levels.update(group)
    couplings = {(i, j): abs(gmat[i, j]) for i, j in combinations(sorted(levels), 2)}
    cscale = max([1.0, *couplings.values()])
    coupled = [p for p, v in couplings.items() if v > _COUPLING_TOL * cscale]
    comps = [c for c in _components(levels, coupled) if len(c) > 1]
    events = [_component_event(c, gmat, slopes, loc) for c in comps]
    # crossing pairs not absorbed into a coupled block pass through freely
    for pair in sorted(pairs):
        if not any(set(pair) <= set(c) for c in comps):
            events.append(_component_event(list(pair), np.zeros_like(gmat), slopes, loc))
    return events


def _component_event(comp, gmat, slopes, loc):
    """The su(2) event of one coupled component (0-based levels) of a cluster.

    The levels are ordered by descending ``|J_z|``, then ascending
    ``|slope|``, then index: a pair puts its flatter level first, a spin-1
    block its flat levels last.
    """
    event = CrossingEvent.from_block(0, loc[0], loc[1], [l + 1 for l in comp], slopes[comp],
                                     gmat[np.ix_(comp, comp)])
    order = sorted(range(len(comp)),
                   key=lambda a: (-abs(event.jz[a]), abs(slopes[comp[a]]), comp[a]))
    jx = np.array(event.jx)[np.ix_(order, order)]
    return replace(event, levels=tuple(event.levels[a] for a in order),
                   jz=tuple(event.jz[a] for a in order), jx=tuple(map(tuple, jx.tolist())))


def derive_schedule_generic(model: AffineModel):
    """Derive the ordered crossing schedule of a partnered model.

    Scans the generator along each segment of ``default_path`` for
    intersections of its diagonal entries.  Intersections that lie within
    ``_CLUSTER_TOL`` of the segment length of one another and share a level
    form one cluster (transitively, by union-find); each coupled component
    of a cluster becomes one su(2) event at the cluster's earliest position.
    Returns the events in path order (ties: smaller blocks first, then
    lowest level), indexed from 1.
    """
    if not model.has_partner:
        model.partner(0.0)  # raises MissingPartnerError
    path = default_path(model)
    r = path[2][0][0]  # the last segment runs down at t = +R
    events = []
    for p0, p1 in path:
        segment = _Segment(model, p0, p1)
        taus = np.linspace(0.0, segment.length, _SEGMENT_SAMPLES)
        samples = np.array([segment.diag(tau) for tau in taus])
        degenerate = _degenerate_pairs(samples)
        crossings = _find_pair_crossings(segment, taus, samples, degenerate)
        quantum = _CLUSTER_TOL * segment.length
        touching = [
            (m, n) for m, n in combinations(range(len(crossings)), 2)
            if abs(crossings[m][2] - crossings[n][2]) <= quantum
            and set(crossings[m][:2]) & set(crossings[n][:2])
        ]
        keyed = []
        for cluster in _components(range(len(crossings)), touching):
            tau = min(crossings[n][2] for n in cluster)
            t_star, e_star = segment.point(tau)
            for event in _cluster_events(
                {crossings[n][:2] for n in cluster}, segment.generator(tau),
                segment.diag_slope(tau), (t_star / r, e_star / r), degenerate,
            ):
                keyed.append((round(tau / quantum), len(event.levels), min(event.levels), event))
        keyed.sort(key=lambda item: item[:3])
        events.extend(item[3] for item in keyed)
    return [replace(event, index=n) for n, event in enumerate(events, start=1)]

"""Crossing-schedule scattering: localized level crossings on a deformed path.

With a valid flow partner E, the sweep can be rerouted through a
three-segment rectangular detour in the (t, eps) plane whose corners sit
at |t| = R with R formally infinite.  Along the detour every level
crossing is localized and pairwise (or reduces to the standard three-level
pattern), so the full scattering matrix factorizes into a product of
elementary blocks: latest crossing leftmost, matching the composition of
probability flows ``S[i, j] = P(j -> i)``.  That product is exact only
where every pair of levels is joined by at most one path of events
(``path_counts``).

No relative phases survive between crossings separated by path length of
order R, with one exception: levels whose diagonal entries coincide
identically (a degenerate flat pair).  Such a pair enters a crossing only
through one combined "bright" direction while the orthogonal "dark"
direction passes untouched, and the flat-level survival amplitude of the
three-level pattern is real, so the pair's local block is still an
ordinary probability matrix parametrized by the bright weights.  For the
shipped families the flat-pair state stays diagonal in every such event's
eigenframe, which keeps the plain probability product exact; the oracle
validates this.

``derive_schedule_generic`` samples each segment's diagonal, brackets
every sign change of a level gap and refines it with ``brentq``.  One
union-find (``_components``) then does all the grouping: crossings within
``_CLUSTER_TOL`` of the segment length of one another that share a level
form a cluster; the cluster takes along the degenerate companions of its
levels; and the couplings of the path generator at the cluster split its
levels into coupled components.  A component of two levels is a two-level
event, one of three or four a three-level event with a flat level or a
degenerate flat pair in the flat role; crossing pairs outside every
component are trivial events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

import numpy as np

from .laxflow import clamp_probabilities
from .models import AffineModel, SingularPartnerError

# samples per path segment used to bracket gap sign changes
_SEGMENT_SAMPLES = 4096
# relative width for grouping simultaneous crossings into one cluster
_CLUSTER_TOL = 1e-6
# couplings below this (relative to the cluster scale) count as absent
_COUPLING_TOL = 1e-12
# relative tolerance for the structural pattern checks
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
    """A crossing cluster does not reduce to the supported block kinds."""


@dataclass(frozen=True)
class CrossingEvent:
    """One localized crossing: participating levels and its block data.

    ``levels`` are 1-based diabatic indices.  For two-level and trivial
    kinds they are the crossing pair (flatter level first); for the
    three-level kind they are (sloped, sloped, flat) or, when the flat
    role is carried by a degenerate pair, (sloped, sloped, flat, flat)
    with ``flat_levels``/``bright_weights`` filled in.
    """

    index: int
    t_over_r: float
    eps_over_r: float
    levels: tuple
    delta_eff: float
    slope_eff: float
    kind: str
    flat_levels: Optional[tuple] = None
    bright_weights: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("trivial", "two-level", "three-level"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if (self.kind == "trivial") != (self.delta_eff == 0.0):
            raise ValueError("kind is trivial exactly when delta_eff == 0")
        if not self.slope_eff > 0.0:
            raise ValueError("slope_eff must be positive")
        if self.delta_eff < 0.0:
            raise ValueError("delta_eff must be nonnegative")

    @property
    def exponent(self) -> float:
        return math.pi * self.delta_eff ** 2 / self.slope_eff

    @property
    def u_eff(self) -> float:
        return math.exp(-self.exponent)

    def to_json_dict(self) -> dict:
        out = {
            "index": self.index,
            "t_over_R": self.t_over_r,
            "eps_over_R": self.eps_over_r,
            "levels": list(self.levels),
            "delta_eff": self.delta_eff,
            "slope_eff": self.slope_eff,
            "kind": self.kind,
        }
        if self.flat_levels is not None:
            out["flat_levels"] = list(self.flat_levels)
            out["bright_weights"] = list(self.bright_weights)
        return out


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


def _three_level_block(u: float) -> np.ndarray:
    v = 1.0 - u
    return np.array(
        [
            [u * u, v * v, 2 * u * v],
            [v * v, u * u, 2 * u * v],
            [2 * u * v, 2 * u * v, (1.0 - 2.0 * u) ** 2],
        ]
    )


def local_smatrix(event: CrossingEvent, k: int) -> np.ndarray:
    """Embed the event's elementary block into a k x k probability matrix."""
    levels = [int(l) for l in event.levels]
    if len(set(levels)) != len(levels) or any(not 1 <= l <= k for l in levels):
        raise ValueError(f"malformed level list {event.levels} for dimension {k}")
    s = np.eye(k)
    if event.kind == "trivial":
        return s
    u = event.u_eff
    if event.kind == "two-level":
        i, j = (l - 1 for l in levels)
        v = 1.0 - u
        s[i, i] = s[j, j] = u
        s[i, j] = s[j, i] = v
        return s
    if event.flat_levels is None:
        s1, s2, f = (l - 1 for l in levels)
        block = _three_level_block(u)
        idx = [s1, s2, f]
        for a in range(3):
            for b in range(3):
                s[idx[a], idx[b]] = block[a, b]
        return s
    # degenerate flat pair: the bright combination takes the flat role,
    # the dark combination passes; the flat-level survival amplitude of
    # the three-level pattern is (2u - 1), real, which makes this block
    # an ordinary probability matrix over the four participating levels
    s1, s2 = (l - 1 for l in levels[:2])
    f1, f2 = (l - 1 for l in event.flat_levels)
    w1, w2 = event.bright_weights
    v = 1.0 - u
    s[s1, s1] = s[s2, s2] = u * u
    s[s1, s2] = s[s2, s1] = v * v
    for f, w in ((f1, w1), (f2, w2)):
        s[s1, f] = s[f, s1] = 2 * u * v * w
        s[s2, f] = s[f, s2] = 2 * u * v * w
    s[f1, f1] = (1.0 - 2.0 * v * w1) ** 2
    s[f2, f2] = (1.0 - 2.0 * v * w2) ** 2
    s[f1, f2] = s[f2, f1] = 4.0 * v * v * w1 * w2
    return s


def compose(schedule, k: int) -> np.ndarray:
    """Total scattering matrix: product of local blocks, latest leftmost.

    An empty schedule composes to the identity.
    """
    total = np.eye(k)
    for event in schedule:
        total = local_smatrix(event, k) @ total
    return clamp_probabilities(total)


def path_counts(schedule, k: int) -> np.ndarray:
    """Number of event paths joining each (end, start) pair of levels.

    The integer product of ``I + incidence`` over the non-trivial events,
    latest leftmost, where an event's incidence joins every pair of its
    levels (a degenerate flat pair counts as two levels).  ``compose`` is
    exact only where every entry is at most 1: with two paths the true
    probability carries their interference, which a product of probability
    blocks drops (same-sign ``bowtieN`` slopes).  Neither ``compose`` nor
    ``derive_schedule_generic`` checks this, because the benchmark's
    crossings workload composes same-sign ``bowtieN`` schedules and compares
    the derived one with the hand-coded one; the CLI rejects them.
    """
    total = np.eye(k, dtype=np.int64)
    for event in schedule:
        if event.kind == "trivial":
            continue
        step = np.eye(k, dtype=np.int64)
        idx = [l - 1 for l in event.levels]
        step[np.ix_(idx, idx)] = 1
        total = step @ total
    return total


def _pair_event(index, t_over_r, eps_over_r, level_pair, coupling, slope_eff):
    flat_first = tuple(level_pair)
    kind = "two-level" if coupling != 0.0 else "trivial"
    return CrossingEvent(
        index=index,
        t_over_r=float(t_over_r),
        eps_over_r=float(eps_over_r),
        levels=flat_first,
        delta_eff=float(abs(coupling)),
        slope_eff=float(slope_eff),
        kind=kind,
    )


def schedule_bowtie3(delta: float, a: float, eps: float):
    """Two crossings of the 3-level bow tie, ordered along the detour.

    For eps > 0 the sweeping level meets level 2 first (at t = -R) and
    level 1 second (at t = +R); for eps < 0 levels 1 and 2 swap roles.
    eps = 0 has a singular partner and no schedule (the numerical engine
    covers that case).
    """
    if not a > 0:
        raise ValueError(f"slope a must be positive, got {a}")
    eps = float(eps)
    if eps == 0.0:
        raise SingularPartnerError("bowtie3 schedule undefined at eps = 0")
    coupling = abs(float(delta)) / a
    slope_eff = 0.5 / a
    rail = math.copysign(a, eps)
    if eps > 0:
        pairs = [(2, 3), (1, 3)]
    else:
        pairs = [(1, 3), (2, 3)]
    return [
        _pair_event(1, -1.0, rail, pairs[0], coupling, slope_eff),
        _pair_event(2, 1.0, rail, pairs[1], coupling, slope_eff),
    ]


def schedule_bowtieN(deltas, slopes, eps: float):
    """Crossing schedule of the k-level bow tie (eps > 0).

    First pass at t = -R in ascending |slope| order: sweeping level i+2
    meets flat level 2 when its slope is positive, flat level 1 when
    negative.  Second pass at t = +R in descending order with the flat
    roles exchanged.
    """
    deltas = [float(v) for v in np.atleast_1d(deltas)]
    slopes = [float(v) for v in np.atleast_1d(slopes)]
    if len(deltas) != len(slopes) or not deltas:
        raise ValueError("delta and slope lists must have equal nonzero length")
    if any(s == 0.0 for s in slopes):
        raise ValueError("slopes must be nonzero")
    mags = [abs(s) for s in slopes]
    for lo, hi in zip(mags, mags[1:]):
        if not lo < hi:
            raise ValueError(f"slope magnitudes must be strictly increasing, got {mags}")
    if not float(eps) > 0.0:
        raise ValueError("bowtieN schedule requires eps > 0")
    events = []
    for i, (d, s) in enumerate(zip(deltas, slopes)):
        flat = 2 if s > 0 else 1
        events.append(
            _pair_event(len(events) + 1, -1.0, mags[i], (flat, i + 3), abs(d / s), 0.5 / mags[i])
        )
    for i in reversed(range(len(slopes))):
        d, s = deltas[i], slopes[i]
        flat = 1 if s > 0 else 2
        events.append(
            _pair_event(len(events) + 1, 1.0, mags[i], (flat, i + 3), abs(d / s), 0.5 / mags[i])
        )
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
    pair_kind = "two-level" if d != 0.0 else "trivial"
    tri_kind = "three-level" if d != 0.0 else "trivial"
    rail = RAIL_FACTOR * 2.0 * a
    events = [
        CrossingEvent(1, -1.0, a, (2, 4), d / a, 0.5 / a, pair_kind),
        CrossingEvent(2, -1.0, a, (6, 3, 5), math.sqrt(2.0) * d / a, 1.0 / a, tri_kind),
        CrossingEvent(3, -1.0, 3.0 * a, (3, 4), 0.0, 0.5 / a, "trivial"),
        CrossingEvent(4, 0.0, rail, (2, 6), 0.0, a, "trivial"),
        CrossingEvent(5, 1.0, 3.0 * a, (1, 5), 0.0, 0.5 / a, "trivial"),
        CrossingEvent(6, 1.0, a, (2, 5), d / a, 0.5 / a, pair_kind),
        CrossingEvent(7, 1.0, a, (1, 6, 4), math.sqrt(2.0) * d / a, 1.0 / a, tri_kind),
    ]
    return events


def schedule_json(schedule) -> list:
    """JSON-ready export of an ordered schedule."""
    return [event.to_json_dict() for event in schedule]


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
    events = [_component_event(c, gmat, slopes, loc, degenerate) for c in comps]
    # crossing pairs not absorbed into a coupled block pass through freely
    for pair in sorted(pairs):
        if not any(set(pair) <= set(c) for c in comps):
            events.append(_crossing_pair_event(pair, 0.0, slopes, loc))
    return events


def _crossing_pair_event(pair, coupling, slopes, loc):
    """Pair event of two crossing levels (0-based), the flatter level first."""
    i, j = sorted(pair, key=lambda l: (abs(slopes[l]), l))
    slope_eff = 0.5 * abs(slopes[i] - slopes[j])
    return _pair_event(0, loc[0], loc[1], (i + 1, j + 1), coupling, slope_eff)


def _component_event(comp, gmat, slopes, loc, degenerate):
    """The event of one coupled component (sorted 0-based levels) of a cluster.

    Two levels make a two-level event.  Three or four make a three-level
    event of a sloped pair meeting a flat level midway: the flat role is
    carried by one level (the sloped pair is then the component's one
    uncoupled pair) or by a degenerate flat pair, which enters through its
    bright combination.
    """
    if len(comp) == 2:
        return _crossing_pair_event(comp, gmat[comp[0], comp[1]], slopes, loc)
    names = [l + 1 for l in comp]
    if len(comp) > 4:
        raise UnsupportedCrossingError(f"{len(comp)} mutually coupled crossing levels {names}")
    tol = _PATTERN_TOL * max(abs(gmat[i, j]) for i, j in combinations(comp, 2))
    if len(comp) == 3:
        uncoupled = [p for p in combinations(comp, 2) if abs(gmat[p]) <= tol]
        if len(uncoupled) != 1:
            raise UnsupportedCrossingError(
                f"three-level cluster {names} lacks the sloped-pair/flat structure"
            )
        s_a, s_b = uncoupled[0]
        flats = [l for l in comp if l not in uncoupled[0]]
    else:
        flats = next((list(p) for p in sorted(degenerate) if set(p) <= set(comp)), None)
        if flats is None:
            raise UnsupportedCrossingError(
                f"4-level cluster {names} has no degenerate flat pair"
            )
        s_a, s_b = (l for l in comp if l not in flats)
        if abs(gmat[s_a, s_b]) > tol or abs(gmat[flats[0], flats[1]]) > tol:
            raise UnsupportedCrossingError(f"coupled sloped or flat pair in cluster {names}")
    v_a, v_b = gmat[flats, s_a], gmat[flats, s_b]
    na, nb = np.linalg.norm(v_a), np.linalg.norm(v_b)
    if abs(na - nb) > tol:
        raise UnsupportedCrossingError(f"unequal couplings to the flat role in cluster {names}")
    if 1.0 - abs(np.vdot(v_a, v_b)) / (na * nb) > _PATTERN_TOL:
        # the two sloped levels couple to different flat directions: no
        # common dark state, genuinely four coupled levels
        raise UnsupportedCrossingError(f"4 mutually coupled crossing levels {names}")
    span = abs(slopes[s_a] - slopes[s_b])
    mid = 0.5 * (slopes[s_a] + slopes[s_b])
    if span == 0.0 or abs(slopes[flats[0]] - mid) > _PATTERN_TOL * span:
        raise UnsupportedCrossingError(f"flat role off-center in cluster {names}")
    flat_pair = len(flats) == 2
    weights = (np.abs(v_a) / na) ** 2
    return CrossingEvent(
        index=0, t_over_r=loc[0], eps_over_r=loc[1],
        levels=(s_a + 1, s_b + 1, *(f + 1 for f in flats)),
        delta_eff=float(na) if flat_pair else 0.5 * (na + nb),
        slope_eff=0.5 * span,
        kind="three-level",
        flat_levels=tuple(f + 1 for f in flats) if flat_pair else None,
        bright_weights=tuple(float(w) for w in weights) if flat_pair else None,
    )


def derive_schedule_generic(model: AffineModel):
    """Derive the ordered crossing schedule of a partnered model.

    Scans the generator along each segment of ``default_path`` for
    intersections of its diagonal entries.  Intersections that lie within
    ``_CLUSTER_TOL`` of the segment length of one another and share a level
    form one cluster (transitively, by union-find); each cluster is
    classified into the supported block kinds at its earliest position.
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

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from lzscatter import crossings
from lzscatter.crossings import (
    CrossingEvent,
    brentq,
    compose,
    derive_schedule_generic,
    local_smatrix,
    path_counts,
    schedule_bowtie3,
    schedule_bowtieN,
    schedule_json,
    schedule_su3six,
)
from lzscatter.laxflow import stochastic_defect
from lzscatter.models import MissingPartnerError, SingularPartnerError, build_model
from lzscatter.numerics import OdeSettings
from lzscatter.oracle import numeric_smatrix, propagate


def bowtie_total(delta, a):
    """Reference factorized matrix for eps > 0, destination-row layout."""
    p = math.exp(-2 * math.pi * delta * delta / a)
    q = 1.0 - p
    return np.array([[p, q * q, p * q], [0.0, p, q], [q, p * q, p * p]])


def test_schedule_bowtie3_positive_eps():
    events = schedule_bowtie3(0.4, 2.0, 1.0)
    assert [e.levels for e in events] == [(2, 3), (1, 3)]
    assert [e.t_over_r for e in events] == [-1.0, 1.0]
    assert all(e.eps_over_r == 2.0 for e in events)
    for e in events:
        assert e.kind == "two-level"
        assert e.delta_eff == pytest.approx(0.4 / 2.0)
        assert e.slope_eff == pytest.approx(0.25)
        assert e.exponent == pytest.approx(2 * math.pi * 0.4 ** 2 / 2.0)


def test_schedule_bowtie3_negative_eps_swaps_roles():
    events = schedule_bowtie3(0.4, 2.0, -1.0)
    assert [e.levels for e in events] == [(1, 3), (2, 3)]
    assert all(e.eps_over_r == -2.0 for e in events)


def test_schedule_bowtie3_errors():
    with pytest.raises(SingularPartnerError):
        schedule_bowtie3(0.4, 1.0, 0.0)
    with pytest.raises(ValueError):
        schedule_bowtie3(0.4, -1.0, 1.0)


def test_schedule_bowtie3_trivial_when_uncoupled():
    events = schedule_bowtie3(0.0, 1.0, 1.0)
    assert all(e.kind == "trivial" for e in events)
    assert np.allclose(compose(events, 3), np.eye(3))


def test_schedule_bowtieN_reduces_to_bowtie3():
    single = schedule_bowtieN([0.4], [2.0], 1.0)
    reference = schedule_bowtie3(0.4, 2.0, 1.0)
    assert [e.levels for e in single] == [e.levels for e in reference]
    assert [e.t_over_r for e in single] == [e.t_over_r for e in reference]
    for a, b in zip(single, reference):
        assert a.delta_eff == pytest.approx(b.delta_eff)
        assert a.slope_eff == pytest.approx(b.slope_eff)


def test_schedule_bowtieN_four_level_example():
    events = schedule_bowtieN([0.2, 0.3], [1.0, -2.0], 1.0)
    got = [(e.t_over_r, e.levels, e.eps_over_r) for e in events]
    assert got == [
        (-1.0, (2, 3), 1.0),
        (-1.0, (1, 4), 2.0),
        (1.0, (2, 4), 2.0),
        (1.0, (1, 3), 1.0),
    ]
    # exponent of crossing i is 2 pi delta_i^2 / |a_i|
    assert events[0].exponent == pytest.approx(2 * math.pi * 0.04 / 1.0)
    assert events[1].exponent == pytest.approx(2 * math.pi * 0.09 / 2.0)


def test_schedule_bowtieN_all_trivial_composes_to_identity():
    events = schedule_bowtieN([0.0, 0.0], [1.0, -2.0], 1.0)
    assert all(e.kind == "trivial" for e in events)
    assert np.allclose(compose(events, 4), np.eye(4))


def test_schedule_bowtieN_validation():
    with pytest.raises(ValueError, match="increasing"):
        schedule_bowtieN([0.1, 0.1], [1.0, -1.0], 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        schedule_bowtieN([0.1], [0.0], 1.0)
    with pytest.raises(ValueError):
        schedule_bowtieN([0.1, 0.2], [1.0], 1.0)
    with pytest.raises(ValueError):
        schedule_bowtieN([0.1], [1.0], -1.0)


def test_schedule_su3six_table():
    d, a = 0.2, 0.4
    events = schedule_su3six(d, a, 1.0)
    table = [
        (-1.0, a, (2, 4), "two-level"),
        (-1.0, a, (6, 3, 5), "three-level"),
        (-1.0, 3 * a, (3, 4), "trivial"),
        (0.0, 8 * a, (2, 6), "trivial"),
        (1.0, 3 * a, (1, 5), "trivial"),
        (1.0, a, (2, 5), "two-level"),
        (1.0, a, (1, 6, 4), "three-level"),
    ]
    assert [(e.t_over_r, e.eps_over_r, e.levels, e.kind) for e in events] == table
    assert events[0].delta_eff == pytest.approx(d / a)
    assert events[0].slope_eff == pytest.approx(0.5 / a)
    assert events[1].delta_eff == pytest.approx(math.sqrt(2) * d / a)
    assert events[1].slope_eff == pytest.approx(1.0 / a)
    # the two pairwise and two three-level crossings share one exponent
    for e in (events[0], events[1], events[5], events[6]):
        assert e.exponent == pytest.approx(2 * math.pi * d * d / a)
    # the middle-rail crossing happens at K a R with K > 3
    assert events[3].eps_over_r / a > 3.0
    with pytest.raises(ValueError):
        schedule_su3six(d, a, -1.0)


def test_event_invariants():
    with pytest.raises(ValueError, match="trivial"):
        CrossingEvent(1, 0.0, 1.0, (1, 2), 0.0, 1.0, "two-level")
    with pytest.raises(ValueError, match="slope_eff"):
        CrossingEvent(1, 0.0, 1.0, (1, 2), 0.1, 0.0, "two-level")
    with pytest.raises(ValueError, match="kind"):
        CrossingEvent(1, 0.0, 1.0, (1, 2), 0.1, 1.0, "four-level")


def test_local_smatrix_two_level_embedding():
    event = schedule_bowtie3(0.3, 1.0, 1.0)[0]
    s = local_smatrix(event, 3)
    p = math.exp(-2 * math.pi * 0.09)
    expect = np.array([[1, 0, 0], [0, p, 1 - p], [0, 1 - p, p]])
    assert np.abs(s - expect).max() < 1e-15


def test_local_smatrix_three_level_embedding():
    event = schedule_su3six(0.2, 0.4, 1.0)[1]  # levels (6, 3, 5)
    s = local_smatrix(event, 6)
    u = event.u_eff
    v = 1 - u
    # sloped pair 6, 3; flat 5 (0-based 5, 2, 4)
    assert s[5, 5] == pytest.approx(u * u)
    assert s[2, 2] == pytest.approx(u * u)
    assert s[5, 2] == pytest.approx(v * v)
    assert s[4, 4] == pytest.approx((1 - 2 * u) ** 2)
    assert s[5, 4] == s[2, 4] == pytest.approx(2 * u * v)
    assert s[0, 0] == s[1, 1] == s[3, 3] == 1.0
    assert stochastic_defect(s) < 1e-14


def test_local_smatrix_reduced_block_is_stochastic():
    event = CrossingEvent(
        1, 1.0, 0.4, (6, 7, 1, 2), 0.7, 2.5, "three-level",
        flat_levels=(1, 2), bright_weights=(0.75, 0.25),
    )
    s = local_smatrix(event, 8)
    assert stochastic_defect(s) < 1e-14
    u = event.u_eff
    v = 1 - u
    assert s[0, 0] == pytest.approx((1 - 2 * v * 0.75) ** 2)
    assert s[0, 1] == pytest.approx(4 * v * v * 0.75 * 0.25)
    assert s[5, 0] == pytest.approx(2 * u * v * 0.75)


def test_local_smatrix_rejects_malformed_levels():
    event = schedule_bowtie3(0.3, 1.0, 1.0)[0]
    with pytest.raises(ValueError, match="malformed"):
        local_smatrix(event, 2)


def test_compose_bowtie3_factorization():
    for eps in (0.5, 1.0, 7.0):
        s = compose(schedule_bowtie3(0.3, 1.0, eps), 3)
        assert np.abs(s - bowtie_total(0.3, 1.0)).max() < 1e-12
    # eps < 0 permutes the two flat levels
    s_neg = compose(schedule_bowtie3(0.3, 1.0, -2.0), 3)
    p = [1, 0, 2]
    assert np.abs(s_neg - bowtie_total(0.3, 1.0)[np.ix_(p, p)]).max() < 1e-12


def test_compose_empty_is_identity():
    assert np.allclose(compose([], 4), np.eye(4))


def test_compose_strong_coupling_limit_is_permutation():
    s = compose(schedule_bowtie3(40.0, 1.0, 1.0), 3)
    expect = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert np.abs(s - expect).max() < 1e-12


def test_commuting_simultaneous_events():
    events = schedule_su3six(0.2, 0.4, 1.0)
    a, b = events[0], events[1]  # same path point, disjoint levels
    left = local_smatrix(a, 6) @ local_smatrix(b, 6)
    right = local_smatrix(b, 6) @ local_smatrix(a, 6)
    assert np.array_equal(left, right)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 1.5), st.floats(0.3, 2.5), st.floats(0.1, 3.0))
def test_compose_doubly_stochastic(delta, a, eps):
    s = compose(schedule_bowtie3(delta, a, eps), 3)
    assert stochastic_defect(s) < 1e-12
    s6 = compose(schedule_su3six(delta, a, eps), 6)
    assert stochastic_defect(s6) < 1e-12


def test_compose_bowtieN_against_oracle():
    deltas, slopes, eps = [0.25, 0.2], [0.8, -1.6], 1.0
    s = compose(schedule_bowtieN(deltas, slopes, eps), 4)
    assert stochastic_defect(s) < 1e-12
    m = build_model("bowtieN", delta=deltas, slope=slopes, eps=eps)
    u = propagate(m, t_final=200.0, settings=OdeSettings(rtol=1e-7, atol=1e-9))
    assert np.abs(s - np.abs(u) ** 2).max() < 2e-2


def test_path_counts():
    # at most one event path per (end, start) pair where the product is exact
    assert np.array_equal(path_counts(schedule_bowtie3(0.3, 1.0, 1.0), 3),
                          [[1, 1, 1], [0, 1, 1], [1, 1, 1]])
    assert path_counts(schedule_bowtie3(0.3, 1.0, -1.0), 3).max() == 1
    assert path_counts(schedule_su3six(0.2, 0.4, 1.0), 6).max() == 1
    opposite = schedule_bowtieN([0.25, 0.25], [0.6, -1.2], 1.0)
    assert np.array_equal(path_counts(opposite, 4), np.ones((4, 4)))
    # same-sign slopes: level 2 reaches level 3 directly or through 4 and 1
    same = schedule_bowtieN([0.25, 0.25], [0.6, 1.2], 1.0)
    assert np.array_equal(path_counts(same, 4),
                          [[1, 2, 2, 1], [0, 1, 1, 1], [1, 2, 2, 1], [1, 1, 1, 1]])
    # trivial events open no path
    uncoupled = schedule_bowtieN([0.0, 0.0], [0.6, 1.2], 1.0)
    assert np.array_equal(path_counts(uncoupled, 4), np.eye(4))


@pytest.mark.parametrize("eps", [1.0, -1.0])
def test_interfering_bowtien_entries_disagree_with_propagation(eps):
    # same-sign slopes: the product of probability blocks misses exactly
    # the entries that two event paths join, which is why the CLI refuses
    # these cases; every other entry passes the compare rule
    m = build_model("bowtieN", delta=[0.25, 0.25], slope=[0.6, 1.2], eps=eps)
    schedule = derive_schedule_generic(m)
    counts = path_counts(schedule, 4)
    assert counts.max() == 2
    result = numeric_smatrix(m, t_final=200.0, settings=OdeSettings(rtol=1e-9, atol=1e-11))
    dev = np.abs(result.s_num - compose(schedule, 4))
    assert dev[counts == 2].min() > 0.05
    assert dev[counts < 2].max() <= max(1e-2, 3 * result.error_estimate)


def test_oracle_pins_composition_orientation():
    # starting in level 2 can reach level 1 through the sweeping level,
    # but level 1 cannot reach level 2: S[0, 1] > 0 and S[1, 0] ~ 0
    m = build_model("bowtie3", delta=0.3, slope=1.0, eps=1.0)
    u = propagate(m, t_final=150.0, settings=OdeSettings(rtol=1e-7, atol=1e-9))
    s_num = np.abs(u) ** 2
    q = 1.0 - math.exp(-2 * math.pi * 0.09)
    assert s_num[0, 1] == pytest.approx(q * q, abs=1e-2)
    assert s_num[1, 0] < 1e-3
    s = compose(schedule_bowtie3(0.3, 1.0, 1.0), 3)
    assert np.abs(s - s_num).max() < 1e-2
    # and the mirrored case
    m_neg = build_model("bowtie3", delta=0.3, slope=1.0, eps=-1.0)
    u_neg = propagate(m_neg, t_final=150.0, settings=OdeSettings(rtol=1e-7, atol=1e-9))
    s_neg = compose(schedule_bowtie3(0.3, 1.0, -1.0), 3)
    assert np.abs(s_neg - np.abs(u_neg) ** 2).max() < 1e-2


def test_generic_matches_handcoded_bowtie3():
    m = build_model("bowtie3", delta=0.3, slope=1.1, eps=0.8)
    generic = derive_schedule_generic(m)
    hand = schedule_bowtie3(0.3, 1.1, 0.8)
    assert [e.levels for e in generic] == [e.levels for e in hand]
    assert [e.kind for e in generic] == [e.kind for e in hand]
    for g, h in zip(generic, hand):
        assert g.delta_eff == pytest.approx(h.delta_eff, rel=1e-9)
        assert g.slope_eff == pytest.approx(h.slope_eff, rel=1e-9)
        assert g.t_over_r == pytest.approx(h.t_over_r, abs=1e-9)
        assert g.eps_over_r == pytest.approx(h.eps_over_r, rel=1e-6)


def _role_levels(event):
    if event.kind == "three-level" and event.flat_levels is None:
        return frozenset(event.levels[:2]), event.levels[2]
    return frozenset(event.levels), None


def test_generic_matches_handcoded_su3six():
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0)
    generic = derive_schedule_generic(m)
    hand = schedule_su3six(0.2, 0.4, 1.0)
    assert len(generic) == len(hand) == 7
    for g, h in zip(generic, hand):
        assert g.kind == h.kind
        assert _role_levels(g) == _role_levels(h)
        assert g.delta_eff == pytest.approx(h.delta_eff, rel=1e-9, abs=1e-12)
        assert g.slope_eff == pytest.approx(h.slope_eff, rel=1e-9)
        assert g.t_over_r == pytest.approx(h.t_over_r, abs=1e-9)
        assert g.eps_over_r == pytest.approx(h.eps_over_r, rel=1e-6)
    assert np.abs(compose(generic, 6) - compose(hand, 6)).max() < 1e-12


def test_generic_su3adj8_structure():
    m = build_model("su3adj8", delta=0.2, slope=0.4, eps=1.0)
    events = derive_schedule_generic(m)
    kinds = [e.kind for e in events]
    assert kinds.count("three-level") == 2
    assert kinds.count("two-level") == 4
    reduced = [e for e in events if e.flat_levels is not None]
    assert len(reduced) == 1
    assert reduced[0].flat_levels == (1, 2)
    w = reduced[0].bright_weights
    assert w[0] == pytest.approx(0.75, abs=1e-9)
    assert w[1] == pytest.approx(0.25, abs=1e-9)
    for e in events:
        if e.kind != "trivial":
            assert e.exponent == pytest.approx(2 * math.pi * 0.04 / 0.4, rel=1e-9)
    s = compose(events, 8)
    assert stochastic_defect(s) < 1e-12
    assert path_counts(events, 8).max() == 1
    # the reduced event joins its flat pair too
    idx = [l - 1 for l in reduced[0].levels]
    assert np.array_equal(path_counts(reduced, 8)[np.ix_(idx, idx)], np.ones((4, 4)))


def test_generic_su3six_negative_eps():
    # untabulated regime, reachable only through the generic derivation:
    # the detour runs below the axis and the outer flat levels swap roles
    m = build_model("su3six", delta=0.2, slope=0.4, eps=-1.0)
    events = derive_schedule_generic(m)
    assert [e.kind for e in events].count("three-level") == 2
    assert all(e.eps_over_r < 0 for e in events)
    assert path_counts(events, 6).max() == 1
    s = compose(events, 6)
    u = propagate(m, t_final=200.0, settings=OdeSettings(rtol=1e-7, atol=1e-9))
    assert np.abs(s - np.abs(u) ** 2).max() < 1e-2


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("f, a, b, xtol", [
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0, 1e-12),
    (lambda x: math.sin(3 * x + 0.4) - 0.2, 0.5, -1.0, 1e-9),
    (lambda x: math.exp(1.7 * x) - 2.5, -4.0, 6.0, 1e-3),
    (lambda x: math.tanh(40 * (x - 0.3)) + 1e-3, -5.0, 5.0, 1e-9),
    (lambda x: (x - 0.1) * (x + 1.3) * (x - 2.2), -1.0, 1.5, 2e-12),
    (lambda x: x, -1.0, 0.0, 1e-9),
    (lambda x: 1e8 * (x - 0.37), 0.0, 1e8, 0.1),
])
def test_brentq_matches_scipy_bit_for_bit(f, a, b, xtol):
    ours, our_calls = _counted(f)
    ref, ref_calls = _counted(f)
    root = brentq(ours, a, b, xtol=xtol)
    assert type(root) is float
    assert root == scipy_brentq(ref, a, b, xtol=xtol)
    assert our_calls == ref_calls


def test_brentq_rejects_bad_brackets():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-9)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, xtol=1e-9)


@pytest.mark.parametrize("family, delta, slope", [
    ("su3adj8", 0.2, 0.4), ("su3six", 0.2, 0.4), ("bowtieN", [0.25, 0.3], [-0.6, 1.2]),
])
def test_generic_roots_equal_scipy_brentq(monkeypatch, family, delta, slope):
    # every root the derivation takes, against scipy's brentq on the same bracket
    own = crossings.brentq
    roots = []

    def both(f, a, b, xtol):
        root = own(f, a, b, xtol=xtol)
        assert root == scipy_brentq(f, a, b, xtol=xtol)
        roots.append(root)
        return root

    monkeypatch.setattr(crossings, "brentq", both)
    derive_schedule_generic(build_model(family, delta=delta, slope=slope, eps=-1.0))
    assert roots


def test_generic_requires_partner():
    with pytest.raises(MissingPartnerError):
        derive_schedule_generic(build_model("lz2", delta=1.0, slope=1.0))


def test_unsupported_cluster_kinds_are_reported():
    from lzscatter.crossings import UnsupportedCrossingError, _component_event

    loc = (0.0, 1.0)
    # five mutually coupled crossing levels have no supported block
    g5 = np.full((5, 5), 0.3, dtype=complex)
    with pytest.raises(UnsupportedCrossingError, match="5 mutually coupled"):
        _component_event(list(range(5)), g5, np.arange(5.0), loc, set())
    # four coupled levels whose flat pair couples to the sloped ones in
    # different directions: no common dark state, genuinely unsupported
    g4 = np.zeros((4, 4), dtype=complex)
    g4[0, 2] = g4[2, 0] = 0.3   # flat 0 couples only to sloped 2
    g4[1, 3] = g4[3, 1] = 0.3   # flat 1 couples only to sloped 3
    slopes = np.array([0.0, 0.0, -1.0, 1.0])
    with pytest.raises(UnsupportedCrossingError, match="4 mutually coupled"):
        _component_event([0, 1, 2, 3], g4, slopes, loc, {(0, 1)})


def _hermitian(k, couplings):
    g = np.zeros((k, k), dtype=complex)
    for (i, j), value in couplings.items():
        g[i, j], g[j, i] = value, np.conj(value)
    return g


# hand-built clusters for the rejections that the test above does not reach:
# (message, crossing pairs, generator, slopes, degenerate pairs)
_SQ = (math.sqrt(0.75) * 0.3, math.sqrt(0.25) * 0.3)
_REJECTED_CLUSTERS = {
    "no sloped-pair structure": (
        "sloped-pair/flat structure", [(0, 1), (0, 2), (1, 2)],
        _hermitian(3, {(0, 1): 0.3, (0, 2): 0.3, (1, 2): 0.3}), [-1.0, 1.0, 0.0], set()),
    "asymmetric couplings": (
        "unequal couplings", [(0, 2), (1, 2)],
        _hermitian(3, {(0, 2): 0.3, (1, 2): 0.5}), [-1.0, 1.0, 0.0], set()),
    "off-centre flat level": (
        "off-center", [(0, 2), (1, 2)],
        _hermitian(3, {(0, 2): 0.3, (1, 2): 0.3}), [-1.0, 1.0, 0.5], set()),
    "4 levels without a degenerate pair": (
        "no degenerate flat pair", [(0, 2), (1, 3)],
        _hermitian(4, {(0, 2): _SQ[0], (1, 2): _SQ[1], (0, 3): _SQ[0], (1, 3): _SQ[1]}),
        [0.0, 0.0, -1.0, 1.0], set()),
    "coupled sloped pair": (
        "coupled sloped or flat pair", [(0, 2), (0, 3)],
        _hermitian(4, {(0, 2): _SQ[0], (1, 2): _SQ[1], (0, 3): _SQ[0], (1, 3): _SQ[1], (2, 3): 0.3}),
        [0.0, 0.0, -1.0, 1.0], {(0, 1)}),
    "unequal strengths": (
        "unequal couplings", [(0, 2), (0, 3)],
        _hermitian(4, {(0, 2): 0.3, (1, 2): 0.3, (0, 3): 0.3}), [0.0, 0.0, -1.0, 1.0], {(0, 1)}),
    "off-centre flat pair": (
        "off-center", [(0, 2), (0, 3)],
        _hermitian(4, {(0, 2): _SQ[0], (1, 2): _SQ[1], (0, 3): _SQ[0], (1, 3): _SQ[1]}),
        [0.5, 0.5, -1.0, 1.0], {(0, 1)}),
    "sloped pair of equal slope": (
        "off-center", [(0, 2), (1, 2)],
        _hermitian(3, {(0, 2): 0.3, (1, 2): 0.3}), [1.0, 1.0, 0.0], set()),
}


@pytest.mark.parametrize("name", sorted(_REJECTED_CLUSTERS))
def test_cluster_classifier_rejects(name):
    from lzscatter.crossings import UnsupportedCrossingError, _cluster_events

    match, pairs, gmat, slopes, degenerate = _REJECTED_CLUSTERS[name]
    with pytest.raises(UnsupportedCrossingError, match=match):
        _cluster_events(set(pairs), gmat, np.array(slopes), (0.0, 1.0), degenerate)


def test_cluster_classifier_accepted_forms():
    from lzscatter.crossings import _cluster_events

    loc = (-1.0, 0.7)
    # a coupled pair (flatter level first) and an uncoupled one that passes
    two = _cluster_events({(0, 1), (1, 2)}, _hermitian(3, {(0, 1): 0.3j}),
                          np.array([1.0, 0.0, -2.0]), loc, set())
    assert [(e.levels, e.kind, e.delta_eff, e.slope_eff) for e in two] == [
        ((2, 1), "two-level", 0.3, 0.5), ((2, 3), "trivial", 0.0, 1.0)]
    assert all((e.index, e.t_over_r, e.eps_over_r) == (0, -1.0, 0.7) for e in two)
    # a sloped pair meeting one flat level midway
    (three,) = _cluster_events({(0, 2), (1, 2)}, _hermitian(3, {(0, 2): 0.3, (1, 2): -0.3}),
                               np.array([-1.0, 1.0, 0.0]), loc, set())
    assert (three.levels, three.kind, three.delta_eff, three.slope_eff) == (
        (1, 2, 3), "three-level", 0.3, 1.0)
    assert three.flat_levels is None and three.bright_weights is None
    # a sloped pair meeting a degenerate flat pair: the companion level 2
    # rides along although only level 1 is in a crossing pair
    g = _hermitian(4, {(0, 2): _SQ[0], (1, 2): _SQ[1], (0, 3): _SQ[0], (1, 3): _SQ[1]})
    (four,) = _cluster_events({(0, 2), (0, 3)}, g, np.array([0.0, 0.0, -1.0, 1.0]), loc, {(0, 1)})
    assert (four.levels, four.kind, four.flat_levels) == ((3, 4, 1, 2), "three-level", (1, 2))
    assert four.delta_eff == pytest.approx(0.3, rel=1e-15)
    assert four.slope_eff == 1.0
    assert four.bright_weights == pytest.approx((0.75, 0.25), rel=1e-15)


def test_generic_detour_far_from_the_origin_in_eps():
    # the detour grows with |eps|, so no crossing falls before its start
    for eps in (1e9, -1e9):
        generic = derive_schedule_generic(build_model("bowtie3", delta=0.3, slope=1.0, eps=eps))
        hand = schedule_bowtie3(0.3, 1.0, eps)
        assert [(e.levels, e.kind) for e in generic] == [(e.levels, e.kind) for e in hand]
        for g, h in zip(generic, hand):
            assert (g.t_over_r, g.eps_over_r) == pytest.approx((h.t_over_r, h.eps_over_r), rel=1e-9)
            assert (g.delta_eff, g.slope_eff) == pytest.approx((h.delta_eff, h.slope_eff), rel=1e-9)
        assert np.abs(compose(generic, 3) - compose(hand, 3)).max() < 1e-14
    near, far = (derive_schedule_generic(build_model("su3adj8", delta=0.2, slope=0.4, eps=eps))
                 for eps in (1.0, 1e9))
    assert len(far) == len(near) == 14
    assert [(e.levels, e.kind, e.flat_levels) for e in far] == [
        (e.levels, e.kind, e.flat_levels) for e in near]
    assert np.abs(compose(far, 8) - compose(near, 8)).max() < 1e-14



@pytest.mark.parametrize("family, delta, slope, sign", [
    ("bowtie3", 0.3, 1.0, 1.0), ("bowtieN", [0.25, 0.2], [0.6, -1.2], -1.0),
    ("su3six", 0.2, 0.4, 1.0), ("su3adj8", 0.2, 0.4, -1.0), ("su3adj8", 3.0, 0.01, 1.0),
])
def test_detour_refuses_eps_beyond_its_float_range(family, delta, slope, sign):
    # the detour scales with |eps|; past the limit its corners or the
    # generator entries on it would overflow, so eps is refused by name,
    # and at the limit the derivation runs without a warning
    limits = []
    for s in (1.0, -1.0):
        with pytest.raises(ValueError, match=r"eps = .* too far .* holds \|eps\| <= ") as info:
            crossings.default_path(build_model(family, delta=delta, slope=slope, eps=s * 1e305))
        limits.append(float(str(info.value).split("<= ")[1].split()[0]))
    assert limits[0] == limits[1] and 1e280 < limits[0] < 1e305
    near = build_model(family, delta=delta, slope=slope, eps=sign * 1e9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = derive_schedule_generic(
            build_model(family, delta=delta, slope=slope, eps=sign * limits[0]))
    assert [(e.levels, e.kind) for e in far] == [
        (e.levels, e.kind) for e in derive_schedule_generic(near)]


def test_schedule_json_fields():
    blob = schedule_json(schedule_su3six(0.2, 0.4, 1.0))
    assert [e["index"] for e in blob] == list(range(1, 8))
    for entry in blob:
        assert set(entry) >= {
            "index", "t_over_R", "eps_over_R", "levels", "delta_eff",
            "slope_eff", "kind",
        }
    m = build_model("su3adj8", delta=0.2, slope=0.4, eps=1.0)
    blob8 = schedule_json(derive_schedule_generic(m))
    reduced = [e for e in blob8 if "flat_levels" in e]
    assert len(reduced) == 1
    assert reduced[0]["bright_weights"] == pytest.approx([0.75, 0.25], abs=1e-9)

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm
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
from lzscatter.crossings import UnsupportedCrossingError
from lzscatter.laxflow import smatrix_spin, stochastic_defect
from lzscatter.models import SU2, MissingPartnerError, SingularPartnerError, build_model, lift
from lzscatter.numerics import OdeSettings, propagate_unitary
from lzscatter.oracle import numeric_smatrix, propagate
from lzscatter.zerocurv import verify_pair


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
    jz, jx = (0.5, -0.5), ((0.0, 0.5), (0.5, 0.0))
    with pytest.raises(ValueError, match="slope_eff"):
        CrossingEvent(1, 0.0, 1.0, (1, 2), 0.1, 0.0, jz, jx)
    with pytest.raises(ValueError, match="delta_eff"):
        CrossingEvent(1, 0.0, 1.0, (1, 2), -0.1, 1.0, jz, jx)
    # the kind is derived: trivial exactly when delta_eff == 0
    assert CrossingEvent(1, 0.0, 1.0, (1, 2), 0.1, 1.0, jz, jx).kind == "two-level"
    assert CrossingEvent(1, 0.0, 1.0, (1, 2), 0.0, 1.0, jz, jx).kind == "trivial"
    with pytest.raises(AttributeError):
        CrossingEvent(1, 0.0, 1.0, (1, 2), 0.1, 1.0, jz, jx).kind = "trivial"


@pytest.mark.parametrize("coupling", [1e-200, 0.3, 1e200])
def test_event_solve_is_scale_free(coupling):
    # the su(2) solve squares the couplings; a tiny or huge one must
    # neither underflow to an unsupported block nor overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = schedule_bowtie3(coupling, 1.0, 1.0)[0]
        three = CrossingEvent.from_block(1, 0.0, 1.0, (1, 2, 3), (-1.0, 1.0, 0.0),
                                         _hermitian(3, {(0, 2): coupling, (1, 2): coupling}))
    assert (pair.kind, pair.delta_eff) == ("two-level", coupling)
    assert (three.kind, three.delta_eff) == ("three-level", coupling)


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
    assert s[5, 4] == pytest.approx(2 * u * v, rel=1e-15)
    assert s[2, 4] == pytest.approx(2 * u * v, rel=1e-15)
    assert s[0, 0] == s[1, 1] == s[3, 3] == 1.0
    assert stochastic_defect(s) < 1e-14


def test_local_smatrix_reduced_block_is_stochastic():
    # a sloped pair meeting a degenerate flat pair through its bright
    # combination, weights (0.75, 0.25)
    bright = 0.7 * np.sqrt([0.75, 0.25])
    coupling = np.zeros((4, 4))
    coupling[:2, 2:] = bright
    coupling[2:, :2] = bright[:, None]
    event = CrossingEvent.from_block(1, 1.0, 0.4, (6, 7, 1, 2), (-2.5, 2.5, 0.0, 0.0), coupling)
    assert (event.kind, event.flat_levels) == ("three-level", (1, 2))
    assert (event.delta_eff, event.slope_eff) == (pytest.approx(0.7, rel=1e-15), 2.5)
    assert event.bright_weights == pytest.approx((0.75, 0.25), rel=1e-15)
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
    # five mutually coupled crossing levels at unequal slope steps
    g5 = np.full((5, 5), 0.3, dtype=complex)
    with pytest.raises(UnsupportedCrossingError,
                       match=r"levels \[1, 2, 3, 4, 5\] are not an su\(2\) image"):
        _component_event(list(range(5)), g5, np.arange(5.0), loc)
    # four levels whose flat pair couples to the sloped ones in different
    # directions: no common dark state, so [J_x, J_y] misses i J_z
    g4 = np.zeros((4, 4), dtype=complex)
    g4[0, 2] = g4[2, 0] = 0.3   # flat 0 couples only to sloped 2
    g4[1, 3] = g4[3, 1] = 0.3   # flat 1 couples only to sloped 3
    slopes = np.array([0.0, 0.0, -1.0, 1.0])
    with pytest.raises(UnsupportedCrossingError,
                       match=r"levels \[1, 2, 3, 4\] are not an su\(2\) image: \[J_x, J_y\]"):
        _component_event([0, 1, 2, 3], g4, slopes, loc)


def _hermitian(k, couplings):
    g = np.zeros((k, k), dtype=complex)
    for (i, j), value in couplings.items():
        g[i, j], g[j, i] = value, np.conj(value)
    return g


# hand-built clusters that are not su(2) images: (the levels the error
# names, crossing pairs, generator, slopes, degenerate pairs)
_SQ = (math.sqrt(0.75) * 0.3, math.sqrt(0.25) * 0.3)
_REJECTED_CLUSTERS = {
    "no sloped-pair structure": (
        [1, 2, 3], [(0, 1), (0, 2), (1, 2)],
        _hermitian(3, {(0, 1): 0.3, (0, 2): 0.3, (1, 2): 0.3}), [-1.0, 1.0, 0.0], set()),
    "asymmetric couplings": (
        [1, 2, 3], [(0, 2), (1, 2)],
        _hermitian(3, {(0, 2): 0.3, (1, 2): 0.5}), [-1.0, 1.0, 0.0], set()),
    "off-centre flat level": (
        [1, 2, 3], [(0, 2), (1, 2)],
        _hermitian(3, {(0, 2): 0.3, (1, 2): 0.3}), [-1.0, 1.0, 0.5], set()),
    "coupled sloped pair": (
        [1, 2, 3, 4], [(0, 2), (0, 3)],
        _hermitian(4, {(0, 2): _SQ[0], (1, 2): _SQ[1], (0, 3): _SQ[0], (1, 3): _SQ[1], (2, 3): 0.3}),
        [0.0, 0.0, -1.0, 1.0], {(0, 1)}),
    "unequal strengths": (
        [1, 2, 3, 4], [(0, 2), (0, 3)],
        _hermitian(4, {(0, 2): 0.3, (1, 2): 0.3, (0, 3): 0.3}), [0.0, 0.0, -1.0, 1.0], {(0, 1)}),
    "off-centre flat pair": (
        [1, 2, 3, 4], [(0, 2), (0, 3)],
        _hermitian(4, {(0, 2): _SQ[0], (1, 2): _SQ[1], (0, 3): _SQ[0], (1, 3): _SQ[1]}),
        [0.5, 0.5, -1.0, 1.0], {(0, 1)}),
}


@pytest.mark.parametrize("name", sorted(_REJECTED_CLUSTERS))
def test_cluster_classifier_rejects(name):
    from lzscatter.crossings import UnsupportedCrossingError, _cluster_events

    names, pairs, gmat, slopes, degenerate = _REJECTED_CLUSTERS[name]
    match = rf"crossing levels {re.escape(str(names))} are not an su\(2\) image"
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


def test_cluster_without_degenerate_record_is_spin_one_plus_dark():
    from lzscatter.crossings import _cluster_events

    # the flat-pair cluster of test_cluster_classifier_accepted_forms with no
    # degenerate pair on record: still spin 1 plus the dark flat
    # combination, with the bright/dark block
    g = _hermitian(4, {(0, 2): _SQ[0], (1, 2): _SQ[1], (0, 3): _SQ[0], (1, 3): _SQ[1]})
    (same,) = _cluster_events({(0, 2), (1, 3)}, g, np.array([0.0, 0.0, -1.0, 1.0]), (-1.0, 0.7), set())
    assert (same.levels, same.kind, same.flat_levels) == ((3, 4, 1, 2), "three-level", (1, 2))
    u = same.u_eff
    v = 1.0 - u
    w = np.array([0.75, 0.25])
    block = np.empty((4, 4))  # levels 3, 4, 1, 2
    block[:2, :2] = [[u * u, v * v], [v * v, u * u]]
    block[:2, 2:] = 2 * u * v * w
    block[2:, :2] = block[:2, 2:].T
    block[2:, 2:] = np.diag((1 - 2 * v * w) ** 2) + 4 * v * v * w[0] * w[1] * (1 - np.eye(2))
    assert np.abs(local_smatrix(same, 4)[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])] - block).max() < 1e-15


def test_equal_slope_pair_is_a_bright_two_level_crossing():
    from lzscatter.crossings import _cluster_events

    # a sloped pair of equal slope meeting a flat level: the pair's bright
    # combination makes a two-level crossing, spin 1/2, and its dark one
    # passes at J_z = 1/2
    (bright,) = _cluster_events({(0, 2), (1, 2)}, _hermitian(3, {(0, 2): 0.3, (1, 2): 0.3}),
                                np.array([1.0, 1.0, 0.0]), (-1.0, 0.7), set())
    assert (bright.levels, bright.kind, bright.flat_levels) == ((3, 1, 2), "two-level", None)
    assert (bright.delta_eff, bright.slope_eff) == (pytest.approx(0.3 * math.sqrt(2.0), rel=1e-15), 0.5)
    u = bright.u_eff
    r = math.sqrt(u)
    block = [[u, (1 - u) / 2, (1 - u) / 2],  # levels 3, 1, 2
             [(1 - u) / 2, (1 + r) ** 2 / 4, (1 - r) ** 2 / 4],
             [(1 - u) / 2, (1 - r) ** 2 / 4, (1 + r) ** 2 / 4]]
    assert np.abs(local_smatrix(bright, 3)[np.ix_([2, 0, 1], [2, 0, 1])] - block).max() < 1e-15


def _spin_block(two_j, mid, spacing, c, seed, dark):
    """A spin-j crossing block in a random phase gauge and level order.

    Slopes ``mid + spacing m`` and coupling ``c J_x`` over m = j ... -j;
    with ``dark`` (integer j) a companion level at m = 0 whose rotation
    with the spin's m = 0 level leaves one combination dark.  Returns the
    levels' slopes, the coupling and the expected probability block (from
    ``smatrix_spin``, and for the mixed pair from d^j_00 = P_j(cos beta)).
    """
    rng = np.random.default_rng(seed)
    k = two_j + 1
    m = two_j / 2 - np.arange(k)
    phases = np.exp(2j * np.pi * rng.uniform(size=k))
    g = c * phases[:, None] * lift(SU2[0], ("sym", k - 1)) * phases.conj()
    slopes = mid + spacing * m
    # u = exp(-pi c^2 / (2 spacing)) = exp(-pi delta^2 / a) at delta = c, a = 2 spacing
    expected = smatrix_spin(k, c, 2.0 * spacing)
    if dark and two_j % 2 == 0:
        z = two_j // 2
        theta, phi = rng.uniform(0.2, 1.3), rng.uniform(0.0, 2.0 * np.pi)
        q = np.eye(k + 1, dtype=complex)
        q[np.ix_([z, k], [z, k])] = [[math.cos(theta), -math.sin(theta) * np.exp(-1j * phi)],
                                     [math.sin(theta) * np.exp(1j * phi), math.cos(theta)]]
        g = q @ np.pad(g, ((0, 1), (0, 1))) @ q.conj().T
        slopes = np.append(slopes, mid)
        d00 = np.polynomial.legendre.legval(2.0 * math.exp(-math.pi * c * c / (2.0 * spacing)) - 1.0,
                                            [0.0] * z + [1.0])
        w = np.abs(q[[z, k], z]) ** 2
        expected = np.pad(expected, ((0, 1), (0, 1)))
        expected[[z, k], :k] = w[:, None] * expected[z, :k]
        expected[:k, [z, k]] = expected[:k, z][:, None] * w
        amp = np.outer(q[[z, k], z], q[[z, k], z].conj()) * d00 + np.outer(q[[z, k], k], q[[z, k], k].conj())
        expected[np.ix_([z, k], [z, k])] = np.abs(amp) ** 2
    perm = rng.permutation(len(slopes))
    return slopes[perm], g[np.ix_(perm, perm)], expected[np.ix_(perm, perm)]


_SPIN_BLOCKS = dict(two_j=st.integers(1, 6), mid=st.floats(-3.0, 3.0), spacing=st.floats(0.2, 3.0),
                    c=st.floats(0.05, 1.5), seed=st.integers(0, 2 ** 32 - 1), dark=st.booleans())


@settings(max_examples=40, deadline=None)
@given(**_SPIN_BLOCKS)
def test_su2_event_is_the_spin_rotation(two_j, mid, spacing, c, seed, dark):
    # any spin-j block, in any gauge and level order, with or without a dark
    # companion, is the permuted smatrix_spin block
    slopes, g, expected = _spin_block(two_j, mid, spacing, c, seed, dark)
    n = len(slopes)
    event = CrossingEvent.from_block(1, 0.0, 1.0, range(1, n + 1), slopes, g)
    assert event.exponent == pytest.approx(math.pi * c * c / (2.0 * spacing), rel=1e-12)
    assert event.kind == {2: "two-level", 3: "three-level"}.get(two_j + 1, f"{two_j + 1}-level")
    s = local_smatrix(event, n)
    assert np.abs(s - expected).max() < 1e-13
    assert stochastic_defect(s) < 1e-13


@settings(max_examples=40, deadline=None)
@given(**_SPIN_BLOCKS, how=st.sampled_from(["strength", "skip", "offset"]))
def test_su2_event_rejects_perturbed_blocks(two_j, mid, spacing, c, seed, dark, how):
    # from spin 1 on, one unequal coupling, one |dm| = 2 coupling or one
    # level off the ladder leaves no su(2) image
    slopes, g, _ = _spin_block(max(two_j, 2), mid, spacing, c, seed, dark)
    n = len(slopes)
    order = np.argsort(-slopes, kind="stable")  # m = j first, then j - 1, ...
    top, second = order[:2]
    if how == "strength":
        g[top, second] *= 1.2
        g[second, top] *= 1.2
    elif how == "skip":
        below = order[np.argmax(slopes[order] < slopes[top] - 1.5 * spacing)]  # m = j - 2
        g[top, below] = g[below, top] = 0.3 * c
    else:
        slopes = slopes.copy()
        slopes[second] += 0.3 * spacing
    levels = list(range(3, n + 3))
    with pytest.raises(UnsupportedCrossingError,
                       match=rf"crossing levels {re.escape(str(levels))} are not an su\(2\) image"):
        CrossingEvent.from_block(1, 0.0, 1.0, levels, slopes, g)


def _sym_lift(model, p):
    """Sym^p of a partnered model: every coefficient through ``models.lift``.

    A Lie-algebra homomorphism, so the lift of a zero-curvature pair is
    one, and the propagator of the lift is ``exp(lift(log U))`` for the
    base propagator U.
    """
    coefficients = ("a0", "a1", "b", "e_inv", "e_0", "e_eps", "e1")
    lifted = {name: lift(getattr(model, name), ("sym", p)) for name in coefficients}
    return replace(model, family=f"sym{p}({model.family})", k=len(lifted["a0"]), rep=("sym", p),
                   **lifted)


def _adiabatic_readout(model, u, t_final):
    """``|V(T)^dag U V(-T)|^2``, each eigenvector of H(+-T) labelled by its dominant level."""
    frames = []
    for t in (-t_final, t_final):
        _, vecs = np.linalg.eigh(model.hamiltonian(t))
        label = np.argmax(np.abs(vecs) ** 2, axis=0)
        assert sorted(label) == list(range(model.k))  # no degenerate diabatic levels
        frame = np.empty_like(vecs)
        frame[:, label] = vecs
        frames.append(frame)
    return np.abs(frames[1].conj().T @ u @ frames[0]) ** 2


@pytest.mark.parametrize("delta, slope", [(0.3, 1.0), (0.5, 1.6)])
@pytest.mark.parametrize("eps", [1.0, -1.0])
def test_sym3_bowtie3_composes_to_its_propagation(delta, slope, eps):
    # the 10-level Sym^3(bowtie3) has spin-3/2 crossings, four levels
    # coupled as one ladder, that the su(2) event classifies; its composed
    # S is exact, as propagation read out in the adiabatic frames shows
    base = build_model("bowtie3", delta=delta, slope=slope, eps=eps)
    model = _sym_lift(base, 3)
    assert verify_pair(model).passed
    events = derive_schedule_generic(model)
    assert len(events) == 21
    assert max(len(e.levels) for e in events if e.kind != "trivial") == 4
    assert "4-level" in {e.kind for e in events}
    assert path_counts(events, model.k).max() == 1
    u_base = propagate_unitary((base.a_of(), base.b), -200.0, 200.0,
                               OdeSettings(rtol=1e-8, atol=1e-10))
    u = expm(lift(logm(u_base), ("sym", 3)))
    assert np.abs(_adiabatic_readout(model, u, 200.0) - compose(events, model.k)).max() <= 1e-5


def test_sym4_bowtie3_derives():
    model = _sym_lift(build_model("bowtie3", delta=0.3, slope=1.0, eps=1.0), 4)
    assert verify_pair(model).passed
    events = derive_schedule_generic(model)
    assert len(events) == 53
    assert max(len(e.levels) for e in events if e.kind != "trivial") == 5
    assert path_counts(events, model.k).max() == 1
    assert stochastic_defect(compose(events, model.k)) < 1e-12


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

import itertools
import time
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from lzscatter import numerics
from lzscatter.models import build_model, unlift
from lzscatter.numerics import (
    IntegrationDivergedError,
    NonHermitianError,
    OdeSettings,
    _expmi,
    _step_generators,
    commutator,
    propagate_unitary,
    unitarity_defect,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]])
SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def test_settings_validation():
    OdeSettings()  # defaults valid
    with pytest.raises(ValueError):
        OdeSettings(rtol=0.0)
    with pytest.raises(ValueError):
        OdeSettings(rtol=0.1)
    with pytest.raises(ValueError):
        OdeSettings(atol=-1e-9)


def test_commutator_pauli():
    assert np.allclose(commutator(SIGMA1, SIGMA2), 2j * SIGMA3, atol=1e-15)


def test_commutator_self_and_diagonal():
    m = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.abs(commutator(m, m)).max() == 0.0
    d1 = np.diag([2.0, -1.0]).astype(complex)
    d2 = np.diag([0.5, 7.0]).astype(complex)
    assert np.abs(commutator(d1, d2)).max() == 0.0


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        commutator(np.eye(2), np.eye(3))


def _random_hamiltonian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


def _rk_reference(a, b, t0, t1, rtol=1e-12, atol=1e-14):
    # independent reference: an embedded Runge-Kutta pair on the flattened U
    n = len(a)
    sol = solve_ivp(lambda t, y: (-1j * (a + t * b) @ y.reshape(n, n)).ravel(), (t0, t1),
                    np.eye(n, dtype=complex).ravel(), method="DOP853", rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[:, -1].reshape(n, n)


def test_magnus_matches_rk():
    # against a tight DOP853 run within 10 rtol, the rule of
    # test_affine_pair_matches_rk: a wrong coefficient of any order of the
    # generator (h^3, either h^5 group, any h^7 term) fails it
    h0 = _random_hamiltonian(3, 11)
    h1 = np.diag([1.0, -0.5, 2.0]).astype(complex)
    settings_ = OdeSettings(rtol=1e-10, atol=1e-12)
    u_rk = _rk_reference(h0, h1, -5.0, 5.0)
    u_mag = propagate_unitary((h0, h1), -5.0, 5.0, settings_)
    assert np.abs(u_rk - u_mag).max() <= 10 * settings_.rtol


def test_magnus_unitary_at_loose_tolerance():
    h = _random_hamiltonian(4, 3)
    pair = (h, np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex))
    u = propagate_unitary(pair, -40.0, 40.0, OdeSettings(rtol=1e-6, atol=1e-8))
    assert unitarity_defect(u) < 1e-11


def test_magnus_reversibility():
    pair = (_random_hamiltonian(3, 5), 0.3 * _random_hamiltonian(3, 6))
    settings_ = OdeSettings(rtol=1e-10, atol=1e-12)
    fwd = propagate_unitary(pair, -3.0, 3.0, settings_)
    back = propagate_unitary(pair, 3.0, -3.0, settings_)
    assert np.abs(back @ fwd - np.eye(3)).max() <= 20 * settings_.rtol


def test_propagate_refuses_a_callable():
    # every family is affine; H(t) as a function has no step generator here
    with pytest.raises(TypeError, match=r"the pair \(A, B\) of H\(t\) = A \+ t B, not a function"):
        propagate_unitary(lambda t: SIGMA1 + t * SIGMA3, -1.0, 1.0)


def test_magnus_divergence_reports_last_time():
    # the coupled gap of (sigma_x, sigma_z) grows like 2 |t|, so at rtol
    # 1e-10 the proposed step falls below 1e-7 of the span [0, 1e5] near
    # t = 227, long before the end
    with pytest.raises(IntegrationDivergedError, match="step underflow") as err:
        propagate_unitary((SIGMA1, SIGMA3), 0.0, 1e5, OdeSettings(rtol=1e-10, atol=1e-12))
    assert 221.0 < err.value.last_t < 233.0


def test_finite_time_singularity_fails_fast(monkeypatch):
    # the gap grows without bound, so the accepted steps shrink without a
    # rejection; they must end the run at the step floor, not crawl on
    # until the step cap meets it (about 136k steps, to t = 802)
    runs = _record_blocks(monkeypatch)
    with pytest.raises(IntegrationDivergedError, match=r"underflow at t = 22\d\.") as err:
        propagate_unitary((SIGMA1, SIGMA3), 0.0, 1e5, OdeSettings(rtol=1e-10))
    assert 221.0 < err.value.last_t < 233.0
    (blocks, _, _), = runs
    assert sum(len(t) for t, _ in blocks) < 24_000  # about 13.9k steps in 114 blocks


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_affine_pair_matches_rk(dim, seed, backward):
    # the closed-form generator of H = A + tB against a tight DOP853 run
    rng = np.random.default_rng(seed)
    a = _random_hamiltonian(dim, seed)
    b = np.diag(rng.uniform(-2.0, 2.0, size=dim)).astype(complex)
    t0, t1 = (3.0, -3.0) if backward else (-3.0, 3.0)
    settings_ = OdeSettings(rtol=1e-8, atol=1e-10)
    u_pair = propagate_unitary((a, b), t0, t1, settings_)
    assert np.abs(u_pair - _rk_reference(a, b, t0, t1)).max() <= 10 * settings_.rtol


def test_step_generator_orders():
    # one full step of H = A + tB at t = 5 against a tight DOP853 reference:
    # halving h divides the error by 2^9 for the eighth-order generator
    m = build_model("bowtie3", delta=0.3, slope=1.0, eps=1.0)
    a, b = m.a_of(), m.b
    steps = (0.4, 0.2, 0.1, 0.05)
    exact = [_rk_reference(a, b, 5.0, 5.0 + h, 1e-13, 1e-15) for h in steps]
    generators, _ = _step_generators((a, b), 5.0)
    errs = [np.abs(_expmi(generators(5.0, h))[0] - u).max() for h, u in zip(steps, exact)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 400 <= coarse / fine <= 640


def _weight(word):
    # a word's power of h: one per letter, one more per Y (= s B)
    return len(word) + word.count("Y")


def _simplex_integral(exponents):
    # the integral of prod_k s_k^e_k over 1/2 > s_1 > ... > s_n > -1/2,
    # exactly: the innermost variable first, each integral a polynomial in
    # the next variable out
    poly = {0: Fraction(1)}
    for e in reversed(exponents):
        out = {}
        for p, c in poly.items():
            q = p + e + 1
            out[q] = out.get(q, 0) + c / q
            out[0] = out.get(0, 0) - c * Fraction(-1, 2) ** q / q
        poly = out
    return sum(c * Fraction(1, 2) ** p for p, c in poly.items())


def _magnus_words(max_weight):
    """Omega with U = exp(-i Omega) for H(s) = X + s Y over s in [-h/2, h/2].

    Independent of the closed form: the Dyson series of U, word by word
    over the letters X and Y (``(-i)^n`` times an exact simplex integral,
    latest time leftmost), and ``Omega = i log U`` by the series of the
    logarithm, all truncated at ``max_weight``; returns {word: coefficient
    of h^weight}.
    """
    dyson = {}
    for n in range(1, max_weight + 1):
        for word in itertools.product("XY", repeat=n):
            if _weight(word) <= max_weight:
                dyson[word] = (-1j) ** n * float(_simplex_integral([letter == "Y" for letter in word]))
    log, power = {}, dict(dyson)
    for k in range(1, max_weight + 1):
        for word, c in power.items():
            log[word] = log.get(word, 0.0) + (-1) ** (k + 1) * c / k
        product = {}
        for (u, cu), (v, cv) in itertools.product(power.items(), dyson.items()):
            if _weight(u + v) <= max_weight:
                product[u + v] = product.get(u + v, 0.0) + cu * cv
        power = product
    return {word: 1j * c for word, c in log.items()}


def test_generator_is_the_magnus_series_to_h7():
    # the closed-form generator against the Dyson series of X + s Y, X = H
    # at the step's midpoint: equal up to h^7 term by term, so it differs
    # from the truncated series by roundoff only; a wrong coefficient of
    # any order, h^7 included, misses by 1e-6 or more at these h
    a, b = _random_hamiltonian(3, 21), np.diag([1.0, -0.5, 2.0]).astype(complex)
    generators, _ = _step_generators((a, b), 0.0)
    words = _magnus_words(7)
    for mid, h in ((0.7, 0.8), (-2.0, 0.5), (3.0, -0.6)):
        letters = {"X": a + mid * b, "Y": b}
        series = sum(c * h ** _weight(w) * reduce(np.matmul, [letters[x] for x in w]) for w, c in words.items())
        assert np.abs(generators(mid - 0.5 * h, h)[0, 0] - series).max() <= 1e-12


def test_pair_step_respects_coupled_gap_cap():
    # the step-doubling estimate aliases once a step turns the coupled
    # levels' relative phase by more than 2 pi; every accepted pair step
    # stays below that, so a loose tolerance still meets its error
    m = build_model("spin", k=3, delta=0.5, slope=1.2)
    a, b = m.a_of(), m.b
    _, max_step = _step_generators((a, b), 0.0)
    # spin k = 3 couples adjacent levels only; at large |t| their gap is
    # |t| times the slope difference
    gap = 100.0 * abs(b[0, 0] - b[1, 1]).real
    assert max_step(100.0, 0.0) == pytest.approx(2 * np.pi / gap, rel=0.01)
    loose = OdeSettings(rtol=1e-6, atol=1e-8)
    tight = OdeSettings(rtol=1e-10, atol=1e-12)
    s_loose = np.abs(propagate_unitary((a, b), -100.0, 100.0, loose)) ** 2
    s_tight = np.abs(propagate_unitary((a, b), -100.0, 100.0, tight)) ** 2
    assert np.abs(s_loose - s_tight).max() <= 10 * loose.rtol


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_block_cap_equals_step_cap():
    # the cap of a block's steps in one array expression is the cap of each
    # step alone, bit for bit; a decoupled member ([A, B] = 0, its quartic
    # identically 0) caps no step
    spin = build_model("spin", k=3, delta=0.5, slope=1.2)
    a = np.stack((spin.a_of(), np.diag([1.0, 0.0, -2.0]).astype(complex)))
    b = np.stack((spin.b, np.diag([0.5, 2.0, -1.0]).astype(complex)))
    t = np.linspace(-120.0, 120.0, 97)
    h = np.geomspace(1e-4, 3.0, 97) * np.where(np.arange(97) % 2, 1.0, -1.0)
    for pair in ((a, b), (a[1], b[1])):
        max_step = _step_generators(pair, 0.0)[1]
        block = max_step(t, h)
        alone = [max_step(t_j, h_j) for t_j, h_j in zip(t.tolist(), h.tolist())]
        assert all(type(cap) is float for cap in alone)
        assert np.array_equal(block, alone)
        assert np.array_equal(max_step(t.reshape(-1, 1), h.reshape(-1, 1)), block.reshape(-1, 1))
    assert np.isinf(_step_generators((a[1], b[1]), 0.0)[1](t, h)).all()
    # the stack's cap against 2 pi (|C| / |[H, [H, C]]|)^(1/2) of the
    # coupled member, H at each step's midpoint
    stacked = _step_generators((a, b), 0.0)[1](t, h)
    c = commutator(a[0], b[0])
    for cap, mid in zip(stacked, t + 0.5 * h):
        hm = a[0] + mid * b[0]
        gap = np.sqrt(np.linalg.norm(commutator(hm, commutator(hm, c))) / np.linalg.norm(c))
        assert cap == pytest.approx(2 * np.pi / gap, rel=1e-9)


def test_step_cap_below_floor_raises():
    # a coupled gap near 1e14 caps the step near 6e-14, below 1e-7 of the
    # span: stepping on would take some 10^13 steps
    big = 1e14
    with pytest.raises(IntegrationDivergedError, match="cap") as err:
        propagate_unitary((big * SIGMA1, big * SIGMA3), 0.0, 1.0)
    assert err.value.last_t == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_cap_quartic_is_a_cap_below_the_floor():
    # within the first block, the cap quartic of a steep pair overflows to
    # +inf: an unbounded gap, so a zero cap refused by name, not a
    # RuntimeWarning.  The span is short enough that its h^7 t_m^4 generator
    # coefficient, times |ad_B^4 [A, B]| ~ 1e250, stays finite
    with pytest.raises(IntegrationDivergedError, match="cap") as err:
        propagate_unitary((SIGMA1, 1e50 * SIGMA3), 0.0, 1e4)
    assert err.value.last_t == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e60, 1e120])
def test_overflowing_pair_is_refused_by_name(scale):
    # the basis grows like |A|^3 |B| and the cap quartic like its square:
    # 1e60 overflows the quartic only, 1e120 the basis itself
    a, b = scale * SIGMA1, 0.4 * SIGMA3
    for pair in ((a, b), (np.stack((a, -a)), np.stack((b, b)))):
        with pytest.raises(ValueError, match="overflow the Magnus basis") as err:
            propagate_unitary(pair, -1.0, 1.0)
        assert f"max|A| = {scale:.3e}, max|B| = 4.000e-01" in str(err.value)


@pytest.mark.parametrize("t0, t1", [(-60.0, 60.0), (-20.0, 50.0), (40.0, -10.0)])
def test_fold_matches_unfolded_halves(t0, t1):
    # an interval with 0 inside is folded into F(t1, 0) G(-t0, 0)^dag; the
    # two halves that end at 0 are never folded, and their product is the
    # full U, phases included.  At rtol 1e-13 both sides carry the roundoff
    # of some 10^3 steps: one-ulp moves of a0's sqrt(3/2) and sqrt(2)
    # entries spread the difference over 4.8e-13 to 2.7e-11 with the
    # sixth-order ungraded controller and 6.1e-13 to 2.0e-12 with the
    # eighth-order graded one, so the bound sits above that spread; a wrong
    # fold misses by 1e-3 or more
    m = build_model("su3adj8", delta=0.2, slope=0.4, eps=-1.0)
    pair = (m.a_of(), m.b)
    tight = OdeSettings(rtol=1e-13, atol=1e-15)
    folded = propagate_unitary(pair, t0, t1, tight)
    halves = propagate_unitary(pair, 0.0, t1, tight) @ propagate_unitary(pair, t0, 0.0, tight)
    assert np.abs(folded - halves).max() <= 1e-10


@pytest.mark.parametrize("family, kwargs", [
    ("bowtie3", dict(delta=0.3, slope=1.0, eps=1.0)),
    ("spin", dict(k=6, delta=0.8, slope=1.0)),
])
def test_folded_sweep_meets_tolerance(family, kwargs):
    # F and G share their steps, so each must still meet the tolerance:
    # the folded sweep at rtol 1e-8 against an unfolded one at 1e-13
    m = build_model(family, **kwargs)
    pair = (m.a_of(), m.b)
    tight = OdeSettings(rtol=1e-13, atol=1e-15)
    loose = OdeSettings(rtol=1e-8, atol=1e-10)
    exact = propagate_unitary(pair, 0.0, 100.0, tight) @ propagate_unitary(pair, -100.0, 0.0, tight)
    u = propagate_unitary(pair, -100.0, 100.0, loose)
    assert np.abs(np.abs(u) ** 2 - np.abs(exact) ** 2).max() <= 2 * loose.rtol


@pytest.mark.parametrize("t0, t1", [(-3.0, 4.0), (5.0, 1.0)])
def test_stacked_pair_matches_members(t0, t1):
    # m pairs as one stack share every step; each member still meets the
    # tolerance it meets alone
    rng = np.random.default_rng(7)
    a = np.stack([_random_hamiltonian(4, seed) for seed in range(3)])
    b = np.stack([np.diag(rng.uniform(-2.0, 2.0, size=4)).astype(complex) for _ in range(3)])
    settings_ = OdeSettings(rtol=1e-8, atol=1e-10)
    stacked = propagate_unitary((a, b), t0, t1, settings_)
    assert stacked.shape == (3, 4, 4)
    # the shared step is capped by the member with the largest coupled gap
    stacked_cap = _step_generators((a, b), 0.0)[1]
    member_caps = [_step_generators((a_m, b_m), 0.0)[1] for a_m, b_m in zip(a, b)]
    for t in (t0, t1):
        expected = min(cap(t, 0.0) for cap in member_caps)
        assert stacked_cap(t, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected < max(cap(t, 0.0) for cap in member_caps)
    for u, a_m, b_m in zip(stacked, a, b):
        alone = propagate_unitary((a_m, b_m), t0, t1, settings_)
        assert np.abs(u - alone).max() <= 10 * settings_.rtol


@pytest.mark.parametrize("pair, t0, ends", [
    # a stack outward from 0, as numeric_smatrix runs its three horizons
    ((np.stack([_random_hamiltonian(3, seed) for seed in (1, 2)]),
      np.stack([np.diag([1.0, -0.5, 2.0]).astype(complex)] * 2)), 0.0, (2.0, 2.0 * np.sqrt(2.0), 4.0)),
    # an unstacked pair folded at 0, its end times on both sides of -t0
    ((_random_hamiltonian(3, 4), np.diag([0.5, -1.0, 1.5]).astype(complex)), -2.5, (1.0, 2.5, 4.0)),
    # backward, and across 0 from an end time on t0's side: not folded
    ((_random_hamiltonian(4, 5), np.diag([0.5, -1.0, 1.5, 0.0]).astype(complex)), 3.0, (1.0, -0.5, -3.0)),
], ids=["stacked", "folded", "backward"])
def test_end_times_match_separate_runs(pair, t0, ends):
    # one run through several end times gives the propagator to each, as a
    # run to that end alone does within 10 rtol; a list, a tuple and
    # EndTimes are the same end times
    settings_ = OdeSettings(rtol=1e-8, atol=1e-10)
    u = propagate_unitary(pair, t0, list(ends), settings_)
    assert u.shape == (len(ends),) + np.shape(pair[0])
    for u_end, end in zip(u, ends):
        assert np.abs(u_end - propagate_unitary(pair, t0, end, settings_)).max() <= 10 * settings_.rtol
    assert np.array_equal(propagate_unitary(pair, t0, numerics.EndTimes(ends), settings_), u)
    assert float(numerics.EndTimes(ends)) == ends[-1]


@pytest.mark.parametrize("t0, t1", [(0.0, (1.0, 0.5)), (0.0, (0.0, 1.0)), (1.0, (2.0, 2.0)),
                                    (0.0, ()), (0.0, (1.0, np.inf))])
def test_end_times_must_be_ordered_away_from_t0(t0, t1):
    with pytest.raises(ValueError, match="end time|finite"):
        propagate_unitary((SIGMA1, SIGMA3), t0, t1)


def test_one_step_size_through_the_end_times(monkeypatch):
    # an end time clips one step and leaves the step size as it was: the
    # run through three horizons takes about the blocks and steps of the
    # run to the last one alone
    m = build_model("bowtie3", delta=0.3, slope=1.0, eps=1.0)
    pair = (np.stack((m.a_of(), -m.a_of())), np.stack((m.b, m.b)))
    settings_ = OdeSettings(rtol=1e-8, atol=1e-10)
    runs = _record_blocks(monkeypatch)
    propagate_unitary(pair, 0.0, (50.0, 50.0 * np.sqrt(2.0), 100.0), settings_)
    propagate_unitary(pair, 0.0, 100.0, settings_)
    (through, _, _), (alone, _, _) = runs
    steps = [sum(len(t) for t, _ in blocks) for blocks in (through, alone)]
    # each of the two inner end times may end a block early and clip one step
    assert len(through) <= len(alone) + 4
    assert steps[0] <= 1.02 * steps[1] + 2


def test_non_finite_matrix_rejected():
    # NaN compares False with any tolerance, so the Hermiticity test alone
    # passed it: eigh returned NaN vectors and propagation reported a step
    # underflow
    bad = np.array([[np.nan, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="A has non-finite"):
        propagate_unitary((bad, SIGMA3), 0.0, 1.0)
    with pytest.raises(ValueError, match="B has non-finite"):
        propagate_unitary((SIGMA1, bad), 0.0, 1.0)


@pytest.mark.parametrize("t0, t1", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
def test_propagate_rejects_non_finite_endpoints(t0, t1):
    # an infinite span never ends: every step size stays infinite
    with pytest.raises(ValueError, match="finite"):
        propagate_unitary((SIGMA1, SIGMA3), t0, t1)


def test_affine_pair_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="mismatch"):
        propagate_unitary((np.eye(2), np.eye(3)), 0.0, 1.0)
    with pytest.raises(ValueError, match="square"):
        propagate_unitary((np.ones((2, 3)), np.eye(2)), 0.0, 1.0)


def test_propagate_rejects_non_hermitian():
    # eigh reads one triangle only: without the check this H would be
    # propagated as the Hermitian [[0, 0], [0, 0]] + t B without an error
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianError, match="A is not Hermitian"):
        propagate_unitary((a, SIGMA3), -5.0, 5.0)
    with pytest.raises(NonHermitianError, match="B is not Hermitian"):
        propagate_unitary((SIGMA1, a), -5.0, 5.0)
    # each member of a stack is checked
    with pytest.raises(NonHermitianError, match="A is not Hermitian"):
        propagate_unitary((np.stack((SIGMA1, a)), np.stack((SIGMA3, SIGMA3))), -5.0, 5.0)



def test_two_level_expmi_matches_the_eigh_route():
    # 2 x 2 stacks take Rodrigues' formula; the reference is the stacked
    # eigh route that every larger matrix takes
    rng = np.random.default_rng(7)
    for scale in (0.0, 1e-12, 1e-6, 1.0, 30.0, 1e3):
        raw = rng.normal(size=(4, 5, 2, 2)) + 1j * rng.normal(size=(4, 5, 2, 2))
        stack = 0.5 * scale * (raw + np.swapaxes(raw.conj(), -1, -2))
        stack[0, 0] = scale * np.eye(2)  # a pure trace: c = 0
        w, v = np.linalg.eigh(stack)
        reference = (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
        got = _expmi(stack)
        assert got.shape == stack.shape
        assert np.abs(got - reference).max() <= 1e-13 * max(1.0, float(np.abs(stack).max()))
        for u in got.reshape(-1, 2, 2):
            assert unitarity_defect(u) <= 1e-15


def test_stacked_expmi_matches_single_exponentials():
    stack = np.stack([_random_hamiltonian(5, seed) for seed in range(3)])
    stacked = _expmi(stack)
    for m, u in zip(stack, stacked):
        assert np.abs(u - _expmi(m)).max() <= 1e-14
        assert np.abs(u - expm(-1j * m)).max() <= 1e-12
        assert unitarity_defect(u) <= 1e-14


def _record_blocks(monkeypatch):
    # one record per adaptive loop: the (t, h) arrays of every block it
    # hands to `generators`, with that loop's generator map and cap
    runs = []
    real = numerics._step_generators

    def recording(pair, t0, t1):
        generators, max_step = real(pair, t0, t1)
        blocks = []
        runs.append((blocks, generators, max_step))

        def recorded(t, h):
            blocks.append((np.array(t, dtype=float), np.array(h, dtype=float)))
            return generators(t, h)

        return recorded, max_step

    monkeypatch.setattr(numerics, "_step_generators", recording)
    return runs


def _replay(blocks, generators, max_step, t0, tol):
    """Accepted (t, h) steps of one loop, replaying the prefix rule.

    Checks that every block starts where the accepted steps end, that a
    block rejected at step j is followed by one that starts with a shorter
    step from there, and that every step meets the cap at its own midpoint.
    """
    accepted = []
    end = t0
    capped = 0
    for i, (t, h) in enumerate(blocks):
        assert t[0] == end
        # within a block each step starts where the previous one ends
        assert np.array_equal(t[1:], t[:-1] + h[:-1])
        caps = np.array([max_step(t_j, h_j) for t_j, h_j in zip(t, h)])
        assert np.all(np.abs(h) <= caps * (1.0 + 1e-12))
        capped += int(np.sum(np.abs(h) >= 0.99 * caps))
        full, first, second = _expmi(generators(t, h))
        err = np.abs(second @ first - full).reshape(len(t), -1).max(axis=1) / numerics._RICHARDSON
        passed = err <= tol
        prefix = len(t) if passed.all() else int(passed.argmin())
        accepted.extend(zip(t[:prefix], h[:prefix]))
        if prefix:
            end = t[prefix - 1] + h[prefix - 1]
        if prefix < len(t) and i + 1 < len(blocks):
            assert abs(blocks[i + 1][1][0]) < abs(h[prefix])
    return accepted, capped


@pytest.mark.parametrize("form", ["pair", "outward", "stacked", "folded"])
def test_block_schedule(monkeypatch, form):
    # the steps each block exponentiates, replayed: the accepted ones are
    # contiguous from t0 to t1, each passed its own Richardson estimate,
    # and every step, accepted or not, meets the cap at its midpoint
    spin = build_model("spin", k=3, delta=0.5, slope=1.2)
    a, b = spin.a_of(), spin.b
    loose = OdeSettings(rtol=1e-6, atol=1e-8)
    rng = np.random.default_rng(7)
    cases = {
        # inward, so the cap grows along each capped step
        "pair": ((a, b), 100.0, 5.0, loose),
        # outward, so the cap shrinks along each capped step and a shortened
        # step moves every later start of its block
        "outward": ((a, b), 5.0, 100.0, loose),
        "stacked": ((np.stack([_random_hamiltonian(4, seed) for seed in range(3)]),
                     np.stack([np.diag(rng.uniform(-2.0, 2.0, size=4)).astype(complex)
                               for _ in range(3)])), 5.0, 1.0, OdeSettings(rtol=1e-8, atol=1e-10)),
        "folded": ((a, b), -60.0, 80.0, loose),
    }
    pair, t0, t1, settings_ = cases[form]
    runs = _record_blocks(monkeypatch)
    propagate_unitary(pair, t0, t1, settings_)
    # the folded pair is a lockstep run of F and G from 0, then the longer
    # one finished alone
    starts = {"folded": [(0.0, 60.0), (60.0, 80.0)]}.get(form, [(t0, t1)])
    assert len(runs) == len(starts)
    tol = settings_.atol + settings_.rtol
    capped = 0
    for (blocks, generators, max_step), (start, stop) in zip(runs, starts):
        assert len(blocks) < sum(len(t) for t, _ in blocks)
        accepted, run_capped = _replay(blocks, generators, max_step, start, tol)
        capped += run_capped
        t_last, h_last = accepted[-1]
        assert t_last + h_last == pytest.approx(stop, rel=1e-15)
        assert sum(len(t) for t, _ in blocks) - len(accepted) < 0.2 * len(accepted)
    if form != "stacked":
        assert capped > 0


@pytest.mark.parametrize("settings_, match, last_t", [
    # the coupled gap of (sigma_x, sigma_z) grows like 2 |t|: at rtol 1e-10
    # the proposed step falls below 1e-7 of the span [0, 1e5] near t = 227
    (OdeSettings(rtol=1e-10, atol=1e-12), "step underflow", 227.0),
    # at rtol 1e-6 the cap 2 pi / (2 t) meets that floor first, at t = 100 pi
    (OdeSettings(rtol=1e-6, atol=1e-8), "cap below the underflow floor", 100.0 * np.pi),
], ids=["step-underflow", "cap-floor"])
def test_block_divergence_reports_last_accepted_time(monkeypatch, settings_, match, last_t):
    runs = _record_blocks(monkeypatch)
    with pytest.raises(IntegrationDivergedError, match=match) as err:
        propagate_unitary((SIGMA1, SIGMA3), 0.0, 1e5, settings_)
    (blocks, generators, max_step), = runs
    accepted, _ = _replay(blocks, generators, max_step, 0.0, settings_.atol + settings_.rtol)
    t_last, h_last = accepted[-1]
    assert err.value.last_t == t_last + h_last
    assert err.value.last_t == pytest.approx(last_t, rel=0.03)
    assert len(blocks) < 200  # 114 and 136 blocks of up to 128 steps


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.booleans())
def test_random_pairs_meet_tolerance(dim, members, seed, through_zero, backward):
    # the block loop on random Hermitian A and B, on intervals that have 0
    # strictly inside (folded when unstacked) or at most at an end
    rng = np.random.default_rng(seed)

    def hermitian(scale):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return scale * (raw + raw.conj().T) / 2

    a = np.stack([hermitian(1.0) for _ in range(members)])
    b = np.stack([hermitian(0.5) for _ in range(members)])
    near, far = rng.uniform(0.0, 2.0), rng.uniform(2.5, 4.0)
    sign = rng.choice((-1.0, 1.0))
    t0, t1 = (-sign * near, sign * far) if through_zero else (sign * near, sign * far)
    if backward:
        t0, t1 = t1, t0
    pair = (a[0], b[0]) if members == 1 else (a, b)
    loose = OdeSettings(rtol=1e-8, atol=1e-10)
    u = propagate_unitary(pair, t0, t1, loose)
    exact = propagate_unitary(pair, t0, t1, OdeSettings(rtol=1e-12, atol=1e-14))
    assert max(unitarity_defect(x) for x in u.reshape(-1, dim, dim)) <= 1e-12
    assert np.abs(u - exact).max() <= 10 * loose.rtol
    if members > 1:
        for u_m, a_m, b_m in zip(u, a, b):
            alone = propagate_unitary((a_m, b_m), t0, t1, loose)
            assert np.abs(u_m - alone).max() <= 10 * loose.rtol


def _stepped_members(runs):
    # the member count of every stack the recorded adaptive loops stepped
    return [generators(0.0, 1.0).shape[1] for _, generators, _ in runs]


def _base_pair(model):
    pair = np.stack((model.a_of(), model.b))
    base = unlift(pair, model.rep)
    return tuple(pair if base is None else base)


_CHIRAL = [
    ("lz2", dict(delta=0.3, slope=1.0)),
    ("adjoint3", dict(delta=0.8, slope=1.0)),
    ("bowtie3", dict(delta=0.3, slope=1.0, eps=1.0)),
    ("bowtieN", dict(delta=(0.25, 0.25), slope=(0.6, 1.2), eps=1.0)),
    ("bowtieN", dict(delta=(0.25, 0.25), slope=(-0.6, 1.2), eps=-1.0)),
    ("su3six", dict(delta=0.2, slope=0.4, eps=-1.0)),
    ("su3adj8", dict(delta=0.2, slope=0.4, eps=-1.0)),
] + [("spin", dict(k=k, delta=0.8, slope=1.0)) for k in range(2, 9)]


@pytest.mark.parametrize("family, kwargs", _CHIRAL)
@pytest.mark.parametrize("form", ["base", "k x k"])
def test_mirror_member_is_formed(monkeypatch, family, kwargs, form):
    # a signed level permutation P maps every catalog pair (A, B) onto its
    # mirror (-A, B), so the mirror member of a stack is formed as P F P^T
    # and one member is stepped; the formed member matches a run of the
    # mirror alone by the rule of test_stacked_pair_matches_members
    model = build_model(family, **kwargs)
    a, b = _base_pair(model) if form == "base" else (model.a_of(), model.b)
    settings_ = OdeSettings(rtol=1e-8, atol=1e-10)
    runs = _record_blocks(monkeypatch)
    f, g = propagate_unitary((np.stack((a, -a)), np.stack((b, b))), 0.0, 30.0, settings_)
    # the fold steps the stack to 20, then the mirror alone to 30
    propagate_unitary((a, b), -30.0, 20.0, settings_)
    # the adjoint's Cartan pair is mapped by the Weyl reflection, a rotation
    # of its two levels in the root-adapted basis and no signed permutation
    stepped = 2 if (family, form) == ("su3adj8", "k x k") else 1
    assert _stepped_members(runs) == [stepped, stepped, 1]
    alone = propagate_unitary((-a, b), 0.0, 30.0, settings_)
    assert np.abs(g - alone).max() <= 10 * settings_.rtol
    assert np.abs(f - propagate_unitary((a, b), 0.0, 30.0, settings_)).max() <= 10 * settings_.rtol


@pytest.mark.parametrize("family, kwargs", [
    ("bowtie3", dict(delta=0.3, slope=1.0, eps=1.0)),
    ("spin", dict(k=6, delta=0.8, slope=1.0)),
])
def test_cap_bound_regime_at_the_cli_horizon(monkeypatch, family, kwargs):
    # at the CLI's T = 300 and rtol 1e-8 the 2 pi cap, not the tolerance,
    # sets many of the steps; the solve still meets 10 rtol against a
    # run at rtol 1e-12
    from lzscatter.oracle import numeric_smatrix

    model = build_model(family, **kwargs)
    loose = OdeSettings(rtol=1e-8, atol=1e-10)
    runs = _record_blocks(monkeypatch)
    s_loose = numeric_smatrix(model, t_final=300.0, settings=loose).s_num
    (blocks, generators, max_step), = runs
    _, capped = _replay(blocks, generators, max_step, 0.0, loose.atol + loose.rtol)
    assert capped > 0.1 * sum(len(t) for t, _ in blocks)
    s_tight = numeric_smatrix(model, t_final=300.0, settings=OdeSettings(rtol=1e-12, atol=1e-14)).s_num
    assert np.abs(s_loose - s_tight).max() <= 10 * loose.rtol


@pytest.mark.parametrize("family", ["su3six", "su3adj8"])
@pytest.mark.parametrize("eps", [1.0, -1.0])
def test_lifted_base_is_matched_over_the_whole_span(monkeypatch, family, eps):
    # the base unlift recovers keeps the mirror symmetry bit for bit, so the
    # one sweep of [0, 300] at the CLI tolerance matches the mirror member
    # within its Duhamel budget and steps F alone
    from lzscatter.oracle import numeric_smatrix

    model = build_model(family, delta=0.3, slope=1.0, eps=eps)
    runs = _record_blocks(monkeypatch)
    numeric_smatrix(model, t_final=300.0, settings=OdeSettings(rtol=1e-8, atol=1e-10))
    assert _stepped_members(runs) == [1]


def _moved_bowtie3(step):
    model = build_model("bowtie3", delta=0.3, slope=1.0, eps=1.0)
    a = model.a_of()
    a[0, 2] = a[2, 0] = step(a[0, 2].real)
    return a, model.b


@pytest.mark.parametrize("pair, stepped", [
    ((_random_hamiltonian(3, 5), np.diag([1.0, -0.5, 2.0]).astype(complex)), 2),
    # one coupling 1e-6 off its mirror image: a mismatch over the bound
    (_moved_bowtie3(lambda x: x + 1e-6), 2),
    # one ulp off, as the bases unlift recovers: matched
    (_moved_bowtie3(lambda x: np.nextafter(x, 1.0)), 1),
], ids=["random", "moved-1e-6", "moved-1-ulp"])
def test_mirror_match_needs_the_symmetry(monkeypatch, pair, stepped):
    a, b = pair
    settings_ = OdeSettings(rtol=1e-8, atol=1e-10)
    runs = _record_blocks(monkeypatch)
    _, g = propagate_unitary((np.stack((a, -a)), np.stack((b, b))), 0.0, 30.0, settings_)
    assert _stepped_members(runs) == [stepped]
    alone = propagate_unitary((-a, b), 0.0, 30.0, settings_)
    assert np.abs(g - alone).max() <= 10 * settings_.rtol


def _reversal_chiral(n, seed):
    # zero diagonal, B a multiple of I: every level permutation is a
    # candidate, and only the reversal (the last one tried) maps A to -A
    x = _random_hamiltonian(n, seed)
    np.fill_diagonal(x, 0.0)
    a = x - x[::-1, ::-1]
    return a, 0.5 * np.eye(n, dtype=complex)


def test_mirror_match_caps_its_candidates(monkeypatch):
    # 8 interchangeable levels are 8! candidates: the search stops at the
    # cap and steps both members, although the reversal would match
    a, b = _reversal_chiral(8, 3)
    start = time.perf_counter()
    assert numerics._signed_permutation((a, b), (-a, b), 0.0, 5.0, 1e-8) is None
    assert time.perf_counter() - start < 1.0
    runs = _record_blocks(monkeypatch)
    propagate_unitary((np.stack((a, -a)), np.stack((b, b))), 0.0, 5.0)
    assert _stepped_members(runs) == [2]
    # 4 levels are 24 candidates, the reversal the 24th
    a, b = _reversal_chiral(4, 3)
    for cap, expected in ((23, None), (24, [3, 2, 1, 0])):
        monkeypatch.setattr(numerics, "_MAX_PERMUTATIONS", cap)
        match = numerics._signed_permutation((a, b), (-a, b), 0.0, 5.0, 1e-8)
        assert (match if match is None else match[0].tolist()) == expected


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_relabelled_pair_propagates_relabelled(dim, seed, chiral):
    # relabelling the levels by a signed permutation P relabels U:
    # U(P A P^T, P B P^T) = P U(A, B) P^T, folded or not, on a random pair
    # or the base of a catalog family
    rng = np.random.default_rng(seed)
    if chiral:
        family, kwargs = _CHIRAL[rng.integers(len(_CHIRAL))]
        a, b = _base_pair(build_model(family, **kwargs))
        dim = len(a)
    else:
        a = _random_hamiltonian(dim, seed)
        b = np.diag(rng.uniform(-2.0, 2.0, size=dim)).astype(complex)
    take = rng.permutation(dim)
    sign = rng.choice((-1.0, 1.0), size=dim)
    relabel = lambda m: np.outer(sign, sign) * m[np.ix_(take, take)]
    t0, t1 = sorted(rng.uniform(-4.0, 4.0, size=2))
    settings_ = OdeSettings(rtol=1e-8, atol=1e-10)
    u = propagate_unitary((a, b), t0, t1, settings_)
    moved = propagate_unitary((relabel(a), relabel(b)), t0, t1, settings_)
    assert np.abs(moved - relabel(u)).max() <= 10 * settings_.rtol

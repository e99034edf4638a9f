import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from lzscatter import numerics
from lzscatter.models import build_model
from lzscatter.numerics import (
    IntegrationDivergedError,
    NonHermitianError,
    OdeSettings,
    _expmi,
    _step_generators,
    commutator,
    hermitian_eigs,
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


def test_hermitian_eigs_diagonal():
    w, v = hermitian_eigs(np.diag([1.0, -1.0]))
    assert np.allclose(w, [-1.0, 1.0])
    # eigenvector columns are standard basis vectors up to phase
    assert np.allclose(np.abs(v), np.eye(2)[:, ::-1])
    w3, _ = hermitian_eigs(np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(w3, [-1.0, 0.0, 1.0])


def test_hermitian_eigs_sigma1():
    w, v = hermitian_eigs(SIGMA1)
    assert np.allclose(w, [-1.0, 1.0])
    for col, val in zip(v.T, w):
        assert np.allclose(SIGMA1 @ col, val * col, atol=1e-14)
    assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)))


def test_hermitian_eigs_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianError, match="1.0"):
        hermitian_eigs(bad)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
def test_eigen_reconstruction(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = raw + raw.conj().T
    w, v = hermitian_eigs(m)
    rebuilt = (v * w) @ v.conj().T
    assert np.abs(rebuilt - m).max() <= 1e-11 * np.abs(m).max()
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-12


def _random_hamiltonian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


def test_magnus_matches_rk():
    h0 = _random_hamiltonian(3, 11)
    h1 = np.diag([1.0, -0.5, 2.0]).astype(complex)
    hfun = lambda t: h0 + t * h1
    settings_ = OdeSettings(rtol=1e-10, atol=1e-12)
    # independent reference: an embedded Runge-Kutta pair on the flattened U
    sol = solve_ivp(lambda t, y: (-1j * hfun(t) @ y.reshape(3, 3)).ravel(), (-5.0, 5.0),
                    np.eye(3, dtype=complex).ravel(), method="DOP853",
                    rtol=settings_.rtol, atol=settings_.atol)
    assert sol.success
    u_rk = sol.y[:, -1].reshape(3, 3)
    u_mag = propagate_unitary(hfun, -5.0, 5.0, settings_)
    assert np.abs(u_rk - u_mag).max() < 1e-7


def test_magnus_unitary_at_loose_tolerance():
    h = _random_hamiltonian(4, 3)
    hfun = lambda t: h + t * np.diag([1.0, 0.5, -0.5, -1.0])
    u = propagate_unitary(hfun, -40.0, 40.0, OdeSettings(rtol=1e-6, atol=1e-8))
    assert unitarity_defect(u) < 1e-11


def test_magnus_reversibility():
    h = _random_hamiltonian(3, 5)
    hfun = lambda t: h * np.exp(-0.1 * t * t)
    settings_ = OdeSettings(rtol=1e-10, atol=1e-12)
    fwd = propagate_unitary(hfun, -3.0, 3.0, settings_)
    back = propagate_unitary(hfun, 3.0, -3.0, settings_)
    assert np.abs(back @ fwd - np.eye(3)).max() <= 20 * settings_.rtol


def test_magnus_divergence_reports_last_time():
    # |H| = 1/(1 - t)^2 blows up at t = 1, so the step size underflows there
    with pytest.raises(IntegrationDivergedError) as err:
        propagate_unitary(lambda t: SIGMA1 / (1.0 - t) ** 2, 0.0, 2.0,
                          OdeSettings(rtol=1e-10, atol=1e-12))
    assert 0.9 < err.value.last_t <= 1.05


def test_finite_time_singularity_fails_fast():
    # the coupled gap grows like 1/(1 - t)^2, so the accepted steps shrink
    # toward t = 1 without a rejection; they must end the run at the step
    # floor, not crawl on for some 10^6 steps (over 50 s)
    calls = []

    def hfun(t):
        calls.append(t)
        return (SIGMA1 + t * SIGMA3) / (1.0 - t) ** 2

    with pytest.raises(IntegrationDivergedError, match=r"at t = 0\.99") as err:
        propagate_unitary(hfun, 0.0, 2.0, OdeSettings(rtol=1e-10))
    assert 0.999 < err.value.last_t < 1.0
    assert len(calls) < 60_000  # about 37k samples of H; some 5M before


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_affine_pair_matches_callable(dim, seed, backward):
    # the closed-form generator of H = A + tB against sampling H(t)
    rng = np.random.default_rng(seed)
    a = _random_hamiltonian(dim, seed)
    b = np.diag(rng.uniform(-2.0, 2.0, size=dim)).astype(complex)
    t0, t1 = (3.0, -3.0) if backward else (-3.0, 3.0)
    settings_ = OdeSettings(rtol=1e-8, atol=1e-10)
    u_pair = propagate_unitary((a, b), t0, t1, settings_)
    u_call = propagate_unitary(lambda t: a + t * b, t0, t1, settings_)
    assert np.abs(u_pair - u_call).max() <= 10 * settings_.rtol


def test_step_generator_orders():
    # one full step of H = A + tB at t = 5 against a tight DOP853 reference:
    # halving h divides the error by 2^7 for the sixth-order pair form and
    # by 2^5 for the fourth-order callable form
    m = build_model("bowtie3", delta=0.3, slope=1.0, eps=1.0)
    a, b = m.a_of(), m.b

    def reference(t, h):
        sol = solve_ivp(lambda s, y: (-1j * (a + s * b) @ y.reshape(3, 3)).ravel(),
                        (t, t + h), np.eye(3, dtype=complex).ravel(), method="DOP853",
                        rtol=1e-13, atol=1e-15)
        return sol.y[:, -1].reshape(3, 3)

    steps = (0.4, 0.2, 0.1, 0.05)
    exact = [reference(5.0, h) for h in steps]
    for form, order, (low, high) in (((a, b), 6, (100, 160)),
                                     (lambda t: a + t * b, 4, (25, 40))):
        _, generators, got_order, _ = _step_generators(form, 5.0)
        assert got_order == order
        errs = [np.abs(_expmi(generators(5.0, h))[0] - u).max() for h, u in zip(steps, exact)]
        for coarse, fine in zip(errs, errs[1:]):
            assert low <= coarse / fine <= high


def test_pair_step_respects_coupled_gap_cap():
    # the step-doubling estimate aliases once a step turns the coupled
    # levels' relative phase by more than 2 pi; every accepted pair step
    # stays below that, so a loose tolerance still meets its error
    m = build_model("spin", k=3, delta=0.5, slope=1.2)
    a, b = m.a_of(), m.b
    _, _, _, max_step = _step_generators((a, b), 0.0)
    # spin k = 3 couples adjacent levels only; at large |t| their gap is
    # |t| times the slope difference
    gap = 100.0 * abs(b[0, 0] - b[1, 1]).real
    assert max_step(100.0, 0.0) == pytest.approx(2 * np.pi / gap, rel=0.01)
    loose = OdeSettings(rtol=1e-6, atol=1e-8)
    tight = OdeSettings(rtol=1e-10, atol=1e-12)
    s_loose = np.abs(propagate_unitary((a, b), -100.0, 100.0, loose)) ** 2
    s_tight = np.abs(propagate_unitary((a, b), -100.0, 100.0, tight)) ** 2
    assert np.abs(s_loose - s_tight).max() <= 10 * loose.rtol


def test_callable_step_respects_coupled_gap_cap():
    # the callable form estimates the coupled gap from the step's two Gauss
    # samples; for an affine H that is the pair form's cap exactly.  Without
    # the cap this loose run missed the tight one by 1.6e-4
    m = build_model("spin", k=3, delta=0.5, slope=1.2)
    a, b = m.a_of(), m.b
    hfun = lambda t: a + t * b
    _, _, _, pair_cap = _step_generators((a, b), 0.0)
    _, _, _, callable_cap = _step_generators(hfun, 0.0)
    for t, h in ((100.0, 0.02), (-3.0, 0.5)):
        assert callable_cap(t, h) == pytest.approx(pair_cap(t, h), rel=1e-9)
    loose = OdeSettings(rtol=1e-6, atol=1e-8)
    tight = OdeSettings(rtol=1e-10, atol=1e-12)
    s_loose = np.abs(propagate_unitary(hfun, -100.0, 100.0, loose)) ** 2
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
        max_step = _step_generators(pair, 0.0)[3]
        block = max_step(t, h)
        alone = [max_step(t_j, h_j) for t_j, h_j in zip(t.tolist(), h.tolist())]
        assert all(type(cap) is float for cap in alone)
        assert np.array_equal(block, alone)
        assert np.array_equal(max_step(t.reshape(-1, 1), h.reshape(-1, 1)), block.reshape(-1, 1))
    assert np.isinf(_step_generators((a[1], b[1]), 0.0)[3](t, h)).all()
    # the stack's cap against 2 pi (|C| / |[H, [H, C]]|)^(1/2) of the
    # coupled member, H at each step's midpoint
    stacked = _step_generators((a, b), 0.0)[3](t, h)
    c = commutator(a[0], b[0])
    for cap, mid in zip(stacked, t + 0.5 * h):
        hm = a[0] + mid * b[0]
        gap = np.sqrt(np.linalg.norm(commutator(hm, commutator(hm, c))) / np.linalg.norm(c))
        assert cap == pytest.approx(2 * np.pi / gap, rel=1e-9)


def test_step_cap_below_floor_raises():
    # a coupled gap near 1e14 caps the step near 6e-14, below 1e-7 of the
    # span: stepping on would take some 10^13 steps
    big = 1e14
    for hfun in ((big * SIGMA1, big * SIGMA3), lambda t: big * (SIGMA1 + t * SIGMA3)):
        with pytest.raises(IntegrationDivergedError, match="cap") as err:
            propagate_unitary(hfun, 0.0, 1.0)
        assert err.value.last_t == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_cap_quartic_is_a_cap_below_the_floor():
    # far out, the cap quartic of a steep pair overflows to +inf: an
    # unbounded gap, so a zero cap refused by name, not a RuntimeWarning
    with pytest.raises(IntegrationDivergedError, match="cap") as err:
        propagate_unitary((SIGMA1, 1e40 * SIGMA3), 0.0, 1e20)
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
    # full U, phases included
    m = build_model("su3adj8", delta=0.2, slope=0.4, eps=-1.0)
    pair = (m.a_of(), m.b)
    tight = OdeSettings(rtol=1e-13, atol=1e-15)
    folded = propagate_unitary(pair, t0, t1, tight)
    halves = propagate_unitary(pair, 0.0, t1, tight) @ propagate_unitary(pair, t0, 0.0, tight)
    assert np.abs(folded - halves).max() <= 1e-11


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
    stacked_cap = _step_generators((a, b), 0.0)[3]
    member_caps = [_step_generators((a_m, b_m), 0.0)[3] for a_m, b_m in zip(a, b)]
    for t in (t0, t1):
        expected = min(cap(t, 0.0) for cap in member_caps)
        assert stacked_cap(t, 0.0) == pytest.approx(expected, rel=1e-12)
        assert expected < max(cap(t, 0.0) for cap in member_caps)
    for u, a_m, b_m in zip(stacked, a, b):
        alone = propagate_unitary((a_m, b_m), t0, t1, settings_)
        assert np.abs(u - alone).max() <= 10 * settings_.rtol


def test_non_finite_matrix_rejected():
    # NaN compares False with any tolerance, so the Hermiticity test alone
    # passed it: eigh returned NaN vectors and propagation reported a step
    # underflow
    bad = np.array([[np.nan, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigs(bad)
    with pytest.raises(ValueError, match="A has non-finite"):
        propagate_unitary((bad, SIGMA3), 0.0, 1.0)
    with pytest.raises(ValueError, match=r"H\(t0\) has non-finite"):
        propagate_unitary(lambda t: bad + t * SIGMA3, 0.0, 1.0)


@pytest.mark.parametrize("t0, t1", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
def test_propagate_rejects_non_finite_endpoints(t0, t1):
    # an infinite span never ends: every step size stays infinite
    for hfun in ((SIGMA1, SIGMA3), lambda t: SIGMA1 + t * SIGMA3):
        with pytest.raises(ValueError, match="finite"):
            propagate_unitary(hfun, t0, t1)


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
    with pytest.raises(NonHermitianError, match=r"H\(t0\) is not Hermitian"):
        propagate_unitary(lambda t: a + t * SIGMA3, -5.0, 5.0)



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
    # hands to `generators`, with that loop's generator map, order and cap
    runs = []
    real = numerics._step_generators

    def recording(hfun, t0, t1):
        n, generators, order, max_step = real(hfun, t0, t1)
        blocks = []
        runs.append((blocks, generators, order, max_step))

        def recorded(t, h):
            blocks.append((np.array(t, dtype=float), np.array(h, dtype=float)))
            return generators(t, h)

        return n, recorded, order, max_step

    monkeypatch.setattr(numerics, "_step_generators", recording)
    return runs


def _replay(blocks, generators, order, max_step, t0, tol):
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
        err = np.abs(second @ first - full).reshape(len(t), -1).max(axis=1) / (2.0 ** order - 1)
        passed = err <= tol
        prefix = len(t) if passed.all() else int(passed.argmin())
        accepted.extend(zip(t[:prefix], h[:prefix]))
        if prefix:
            end = t[prefix - 1] + h[prefix - 1]
        if prefix < len(t) and i + 1 < len(blocks):
            assert abs(blocks[i + 1][1][0]) < abs(h[prefix])
    return accepted, capped


@pytest.mark.parametrize("form", ["pair", "outward", "stacked", "folded", "callable"])
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
        "callable": (lambda t: a + t * b, -100.0, 100.0, loose),
    }
    hfun, t0, t1, settings_ = cases[form]
    runs = _record_blocks(monkeypatch)
    propagate_unitary(hfun, t0, t1, settings_)
    # the folded pair is a lockstep run of F and G from 0, then the longer
    # one finished alone
    starts = {"folded": [(0.0, 60.0), (60.0, 80.0)]}.get(form, [(t0, t1)])
    assert len(runs) == len(starts)
    tol = settings_.atol + settings_.rtol
    capped = 0
    for (blocks, generators, order, max_step), (start, stop) in zip(runs, starts):
        assert len(blocks) < sum(len(t) for t, _ in blocks)
        accepted, run_capped = _replay(blocks, generators, order, max_step, start, tol)
        capped += run_capped
        t_last, h_last = accepted[-1]
        assert t_last + h_last == pytest.approx(stop, rel=1e-15)
        assert sum(len(t) for t, _ in blocks) - len(accepted) < 0.2 * len(accepted)
    if form != "stacked":
        assert capped > 0


@pytest.mark.parametrize("hfun, match", [
    # |H| = 1/(1 - t)^2 blows up at t = 1: the step size underflows there
    (lambda t: SIGMA1 / (1.0 - t) ** 2, "underflow"),
    # the coupled gap jumps to ~1e14 past t = 0.5: the cap falls below the
    # floor at the first step whose Gauss samples reach past it
    (lambda t: SIGMA1 + t * (1e14 if t > 0.5 else 1.0) * SIGMA3, "cap"),
], ids=["step-underflow", "cap-floor"])
def test_block_divergence_reports_last_accepted_time(monkeypatch, hfun, match):
    runs = _record_blocks(monkeypatch)
    settings_ = OdeSettings(rtol=1e-6, atol=1e-8)
    with pytest.raises(IntegrationDivergedError, match=match) as err:
        propagate_unitary(hfun, 0.0, 2.0, settings_)
    (blocks, generators, order, max_step), = runs
    accepted, _ = _replay(blocks, generators, order, max_step, 0.0, settings_.atol + settings_.rtol)
    t_last, h_last = accepted[-1]
    assert err.value.last_t == t_last + h_last
    assert 0.45 < err.value.last_t <= 1.05


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

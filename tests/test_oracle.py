import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from brundobler_elser import extremal_survivals
from lzscatter import oracle
from lzscatter.laxflow import lz_closed_form
from lzscatter.models import build_model
from lzscatter.numerics import OdeSettings, propagate_unitary, unitarity_defect
from lzscatter.oracle import (
    adiabatic_spectrum,
    default_horizon,
    numeric_smatrix,
    propagate,
    spectrum_csv_lines,
)

FAST = OdeSettings(rtol=1e-8, atol=1e-10)


def test_propagate_decoupled_is_diagonal():
    m = build_model("bowtie3", delta=0.0, slope=1.0, eps=0.7)
    u = propagate(m, t_final=40.0, settings=FAST)
    assert np.abs(np.abs(u) ** 2 - np.eye(3)).max() < 1e-10


def test_propagate_two_level_survival():
    m = build_model("lz2", delta=1.0, slope=1.0)
    u = propagate(m, t_final=80.0, settings=FAST)
    assert abs(abs(u[0, 0]) ** 2 - math.exp(-math.pi)) < 1e-2
    assert unitarity_defect(u) <= 10 * FAST.rtol


def test_propagate_group_property():
    m = build_model("spin", k=3, delta=0.5, slope=1.0)
    pair = (m.a_of(), m.b)
    fwd = propagate_unitary(pair, -30.0, 30.0, FAST)
    back = propagate_unitary(pair, 30.0, -30.0, FAST)
    assert np.abs(back @ fwd - np.eye(3)).max() <= 20 * FAST.rtol


def test_propagate_validates_horizon():
    m = build_model("lz2", delta=1.0, slope=1.0)
    with pytest.raises(ValueError):
        propagate(m, t_final=-10.0)


def test_default_horizon_scales():
    lz = build_model("lz2", delta=1.0, slope=1.0)
    assert default_horizon(lz) == pytest.approx(300.0)
    wide = build_model("lz2", delta=3.0, slope=1.0)
    assert default_horizon(wide) == pytest.approx(2700.0)
    bt = build_model("bowtie3", delta=0.1, slope=1.0, eps=2.5)
    assert default_horizon(bt) == pytest.approx(750.0)


def test_numeric_smatrix_rows_sum_within_defect():
    m = build_model("bowtie3", delta=0.25, slope=1.0, eps=0.8)
    result = numeric_smatrix(m, t_final=60.0, settings=FAST)
    tol = max(result.unitarity_defect * m.k, 1e-12)
    assert np.abs(result.s_num.sum(axis=0) - 1.0).max() <= tol
    assert result.error_estimate >= 0.0
    assert result.converged
    # Brundobler-Elser on the sweeping level, within the route's own error
    # estimate (measured 0.0021 against 0.0155)
    for i, p in extremal_survivals(m).items():
        assert abs(result.s_num[i, i] - p) <= result.error_estimate


def test_numeric_smatrix_identity_when_uncoupled():
    m = build_model("spin", k=4, delta=0.0, slope=1.0)
    result = numeric_smatrix(m, t_final=30.0, settings=FAST)
    assert np.abs(result.s_num - np.eye(4)).max() < 1e-10
    assert result.error_estimate < 1e-10


def test_numeric_smatrix_flags_unconverged_horizon():
    # a horizon so short the sweep has not finished leaves a large spread
    # between the re-runs; the result is flagged but still returned
    m = build_model("lz2", delta=1.0, slope=1.0)
    result = numeric_smatrix(m, t_final=2.0, settings=FAST)
    assert not result.converged
    assert result.error_estimate > 0.1
    assert result.s_num.shape == (2, 2)


def test_numeric_smatrix_nested_matches_independent_horizons():
    # the nested lockstep shells against three separate sweeps of
    # [-T_n, T_n], each the product of its two unfolded halves
    tight = OdeSettings(rtol=1e-10, atol=1e-12)
    m = build_model("bowtie3", delta=0.3, slope=1.0, eps=-0.8)
    pair = (m.a_of(), m.b)
    t_final = 40.0
    mats = [
        np.abs(propagate_unitary(pair, 0.0, t, tight) @ propagate_unitary(pair, -t, 0.0, tight)) ** 2
        for t in (0.5 * t_final, t_final / math.sqrt(2.0), t_final)
    ]
    spread = max(np.abs(mats[0] - mats[2]).max(), np.abs(mats[1] - mats[2]).max())
    result = numeric_smatrix(m, t_final=t_final, settings=tight)
    assert np.abs(result.s_num - mats[2]).max() <= 1e-7
    assert abs(result.error_estimate - spread) <= 1e-7


_LIFTED = [
    ("spin", dict(k=3, delta=0.5, slope=1.0), 60.0),
    ("spin", dict(k=5, delta=0.8, slope=1.0), 60.0),
    ("spin", dict(k=8, delta=0.3, slope=0.7), 60.0),
    # the group lift costs O(k^3), so k = 32 is one 2 x 2 propagation; the
    # short horizon keeps its direct 32 x 32 reference cheap
    ("spin", dict(k=32, delta=0.5, slope=1.0), 5.0),
    ("adjoint3", dict(delta=0.4, slope=0.9), 60.0),
    ("su3six", dict(delta=0.2, slope=0.4, eps=1.0), 60.0),
    ("su3six", dict(delta=0.2, slope=0.4, eps=-1.0), 60.0),
    ("su3adj8", dict(delta=0.2, slope=0.4, eps=1.0), 60.0),
    ("su3adj8", dict(delta=0.2, slope=0.4, eps=-1.0), 60.0),
]


@pytest.mark.parametrize("family, kwargs, t_final", _LIFTED)
def test_lifted_numeric_smatrix_matches_the_direct_fold(family, kwargs, t_final):
    # the base's propagator through lift_unitary against the fold of the
    # model's own k x k pair (the same model naming no representation)
    m = build_model(family, **kwargs)
    tight = OdeSettings(rtol=1e-11, atol=1e-13)
    lifted = numeric_smatrix(m, t_final=t_final, settings=tight)
    direct = numeric_smatrix(dataclasses.replace(m, rep=None), t_final=t_final, settings=tight)
    assert np.abs(lifted.s_num - direct.s_num).max() <= 1e-9
    assert abs(lifted.error_estimate - direct.error_estimate) <= 1e-9
    assert lifted.unitarity_defect <= 1e-10


def test_lifted_numeric_smatrix_propagates_only_the_base(monkeypatch):
    calls = []

    def spy(pair, t0, t1, settings):
        calls.append((np.shape(pair[0]), t0, tuple(t1)))
        return propagate_unitary(pair, t0, t1, settings)

    monkeypatch.setattr(oracle, "propagate_unitary", spy)
    m = build_model("su3adj8", delta=0.2, slope=0.4, eps=1.0)
    numeric_smatrix(m, t_final=10.0, settings=FAST)
    # one sweep of the stacked base pair through the three horizons
    horizons = (5.0, 10.0 / np.sqrt(2.0), 10.0)
    assert calls == [((2, 3, 3), 0.0, horizons)]
    # a model that names no representation runs on its own pair
    calls.clear()
    numeric_smatrix(dataclasses.replace(m, rep=None), t_final=10.0, settings=FAST)
    assert calls == [((2, 8, 8), 0.0, horizons)]


def test_lifted_numeric_smatrix_follows_a_copy_with_other_coefficients():
    # the base pair is unlifted from the copy's own coefficients, not kept
    # from the model it was copied from (whose S is 0.98 away)
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0)
    scaled = dataclasses.replace(m, a0=3.0 * m.a0)
    tight = OdeSettings(rtol=1e-11, atol=1e-13)
    lifted = numeric_smatrix(scaled, t_final=50.0, settings=tight)
    direct = numeric_smatrix(dataclasses.replace(scaled, rep=None), t_final=50.0, settings=tight)
    assert np.abs(lifted.s_num - direct.s_num).max() <= 1e-9
    assert np.abs(lifted.s_num - numeric_smatrix(m, t_final=50.0, settings=tight).s_num).max() > 0.1


def test_off_image_copy_runs_its_own_pair(monkeypatch):
    shapes = []

    def spy(pair, t0, t1, settings):
        shapes.append((np.shape(pair[0]), len(t1)))
        return propagate_unitary(pair, t0, t1, settings)

    monkeypatch.setattr(oracle, "propagate_unitary", spy)
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    perturbed = dataclasses.replace(m, a0=m.a0 + 1e-3 * (x + x.conj().T))
    result = numeric_smatrix(perturbed, t_final=10.0, settings=FAST)
    assert shapes == [((2, 6, 6), 3)]
    direct = numeric_smatrix(dataclasses.replace(perturbed, rep=None), t_final=10.0, settings=FAST)
    assert np.array_equal(result.s_num, direct.s_num)


_RELABELLED = {
    "bowtie3": dict(delta=0.3, slope=1.0, eps=1.0),
    "su3six": dict(delta=0.2, slope=0.4, eps=-1.0),
    "spin": dict(k=4, delta=0.8, slope=1.0),
    "adjoint3": dict(delta=0.8, slope=1.0),
}


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(_RELABELLED)), st.integers(0, 2 ** 32 - 1))
def test_relabelled_model_permutes_s(family, seed):
    # a model naming no representation whose coefficients are relabelled by
    # a signed level permutation returns S with its rows and columns
    # permuted the same way (the signs drop out of |U|^2)
    m = build_model(family, **_RELABELLED[family])
    rng = np.random.default_rng(seed)
    take = rng.permutation(m.k)
    sign = rng.choice((-1.0, 1.0), size=m.k)
    relabel = lambda x: np.outer(sign, sign) * x[np.ix_(take, take)]
    moved = dataclasses.replace(m, rep=None, a0=relabel(m.a0), a1=relabel(m.a1), b=relabel(m.b))
    s = numeric_smatrix(dataclasses.replace(m, rep=None), t_final=30.0, settings=FAST)
    s_moved = numeric_smatrix(moved, t_final=30.0, settings=FAST)
    assert np.abs(s_moved.s_num - s.s_num[np.ix_(take, take)]).max() <= 10 * FAST.rtol
    assert abs(s_moved.error_estimate - s.error_estimate) <= 10 * FAST.rtol


@pytest.mark.parametrize("t_final", [0.0, -10.0, np.inf, np.nan])
def test_numeric_smatrix_validates_horizon(t_final):
    m = build_model("lz2", delta=1.0, slope=1.0)
    with pytest.raises(ValueError, match="horizon"):
        numeric_smatrix(m, t_final=t_final)


def test_oracle_against_closed_form():
    m = build_model("lz2", delta=math.sqrt(0.5), slope=1.0)
    result = numeric_smatrix(m, t_final=300.0, settings=FAST)
    dev = np.abs(result.s_num - lz_closed_form(math.sqrt(0.5), 1.0)).max()
    assert dev <= 1e-2
    assert result.unitarity_defect <= 10 * FAST.rtol


@pytest.mark.parametrize("coupling_sq", [0.05, 3.0])
def test_oracle_closed_form_coupling_extremes(coupling_sq):
    # edges of the working coupling window, at tight tolerance
    tight = OdeSettings(rtol=1e-10, atol=1e-12)
    d = math.sqrt(coupling_sq)
    m = build_model("lz2", delta=d, slope=1.0)
    u = propagate(m, t_final=300.0, settings=tight)
    assert np.abs(np.abs(u) ** 2 - lz_closed_form(d, 1.0)).max() <= 1e-2
    assert unitarity_defect(u) <= 10 * tight.rtol


def test_spectrum_uncoupled_follows_diagonal():
    m = build_model("bowtie3", delta=0.0, slope=1.0, eps=0.4)
    grid = np.linspace(-3.0, 3.0, 121)
    curves, _ = adiabatic_spectrum(m, grid)
    for n, t in enumerate(grid):
        expect = sorted([0.4, -0.4, t])
        assert np.allclose(sorted(curves[n]), expect, atol=1e-12)
    # each tracked curve is a straight diabatic line despite the crossings
    slopes = (curves[-1] - curves[0]) / (grid[-1] - grid[0])
    assert sorted(np.round(slopes, 6)) == [0.0, 0.0, 1.0]


def test_spectrum_two_level_hyperbolas():
    m = build_model("lz2", delta=0.5, slope=1.0)
    grid = np.linspace(-4.0, 4.0, 161)
    curves, flags = adiabatic_spectrum(m, grid)
    gap = np.sqrt(grid ** 2 + 0.25)
    assert np.abs(np.sort(curves, axis=1) - np.column_stack([-gap, gap])).max() < 1e-12
    assert not flags.any()


def test_spectrum_continuity_through_avoided_crossings():
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0)
    grid = np.linspace(-10.0, 10.0, 401)
    curves, _ = adiabatic_spectrum(m, grid)
    jumps = np.abs(np.diff(curves, axis=0)).max()
    assert jumps < 0.15  # bounded by the local slope times the grid step


def test_spectrum_coarse_grid_follows_diabatic_lines():
    # a sharp crossing inside one giant step: the assignment confidently
    # swaps (the tracker follows the diabatic lines), no ambiguity flag
    m = build_model("lz2", delta=1e-3, slope=1.0)
    curves, flags = adiabatic_spectrum(m, np.array([-5.0, 5.0]))
    assert not flags.any()
    assert curves[0, 0] == pytest.approx(-5.0, abs=1e-3)
    assert curves[1, 0] == pytest.approx(5.0, abs=1e-3)


def test_spectrum_fallback_at_ambiguous_overlap():
    # an abrupt basis change spreading every old eigenvector over three
    # new ones (squared overlaps 1/9 and 4/9, all below 1/2) forces the
    # sorted-order fallback, and the point is flagged
    from types import SimpleNamespace

    u = np.full(3, 1.0 / np.sqrt(3.0))
    householder = np.eye(3) - 2.0 * np.outer(u, u)
    levels = np.diag([1.0, 2.0, 3.0])

    def ham(t):
        if t < 0:
            return levels.astype(complex)
        return (householder @ levels @ householder).astype(complex)

    stub = SimpleNamespace(k=3, hamiltonian=ham)
    curves, flags = adiabatic_spectrum(stub, np.array([-1.0, 1.0]))
    assert flags[1]
    assert list(curves[1]) == sorted(curves[1])


def test_spectrum_fallback_at_tied_overlap(monkeypatch):
    # a 45 degree basis change ties every squared overlap at 1/2; roundoff
    # that lifts the ties to 0.5000000000000001 leaves both curves choosing
    # the first eigenvector, which is no permutation, so the point falls
    # back to sorted order and is flagged
    c = 0.7071067811865476
    vectors = np.array([np.eye(2), [[c, c], [c, -c]]], dtype=complex)
    assert (np.abs(vectors[1]) ** 2).min() > 0.5
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (np.array([[1.0, 2.0]] * 2), vectors))
    m = build_model("lz2", delta=0.5, slope=1.0)
    curves, flags = adiabatic_spectrum(m, np.array([-1.0, 1.0]))
    assert list(flags) == [False, True]
    assert curves.tolist() == [[1.0, 2.0], [1.0, 2.0]]


def _spectrum_lsa(model, t_grid, stacked=True):
    # reference: the optimal assignment of the squared overlaps (scipy),
    # with one stacked eigh over the grid or one eigh per grid point
    hs = [model.hamiltonian(t) for t in t_grid]
    eigs = zip(*np.linalg.eigh(np.stack(hs))) if stacked else map(np.linalg.eigh, hs)
    curves = np.empty((t_grid.size, model.k))
    flags = np.zeros(t_grid.size, dtype=bool)
    prev_vecs = None
    for n, (w, vecs) in enumerate(eigs):
        order = np.arange(model.k)
        if prev_vecs is not None:
            overlap = np.abs(prev_vecs.conj().T @ vecs) ** 2
            rows, cols = linear_sum_assignment(-overlap)
            order[rows] = cols
            if overlap[rows, cols].min() < 0.5:
                order = np.arange(model.k)
                flags[n] = True
        curves[n] = w[order]
        prev_vecs = vecs[:, order]
    return curves, flags


def _turning_kernel_eigh(angle):
    # np.linalg.eigh for su3adj8 = Ad(bowtie3), whose eigenvalue 0 is twofold
    # at every t (the kernel of ad(h) holds the diagonal matrices of h's
    # eigenbasis); eigh's basis of that kernel is arbitrary, so this one takes
    # the basis closest to the diabatic Cartan levels 1 and 2 and turns it by
    # `angle` at every other grid point, counted along a stacked call or
    # across per-point calls
    real_eigh = np.linalg.eigh
    calls = itertools.count()
    turn = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    cartan = np.eye(8)[:, :2]

    def eigh(h):
        w, v = real_eigh(h)
        stack = v.reshape(-1, 8, 8).copy()
        first = 0 if w.ndim > 1 else next(calls)
        for n, (wn, vn) in enumerate(zip(w.reshape(-1, 8), stack)):
            pair = np.sort(np.argsort(np.abs(wn))[:2])
            assert np.abs(wn[pair]).max() < 1e-12
            u, _, vh = np.linalg.svd(vn[:, pair].conj().T @ cartan)
            vn[:, pair] = vn[:, pair] @ u @ vh @ np.linalg.matrix_power(turn, (first + n) % 2)
        return w, stack.reshape(v.shape)

    return eigh


@pytest.mark.parametrize("family, kwargs", [
    ("su3six", dict(delta=0.2, slope=0.5, eps=0.5)),
    ("bowtieN", dict(delta=[0.2, 0.3], slope=[0.5, -1.0], eps=0.5)),
    ("su3adj8", dict(delta=0.2, slope=0.4, eps=1.0)),
])
def test_spectrum_stacked_matches_per_point(family, kwargs, monkeypatch):
    # each grid passes an exact degeneracy (su3six and bowtieN at one
    # point, su3adj8 at every point), where eigenvectors are arbitrary
    # within the degenerate subspace; su3adj8's pair is turned by pi/4 at
    # every other point, so both trackers meet overlaps just below 1/2
    # there, whatever basis eigh itself picks
    m = build_model(family, **kwargs)
    if family == "su3adj8":
        monkeypatch.setattr(np.linalg, "eigh", _turning_kernel_eigh(math.pi / 4))
    grid = np.linspace(-4.0, 4.0, 33)
    gaps = np.diff(np.linalg.eigvalsh(np.stack([m.hamiltonian(t) for t in grid])), axis=1)
    assert gaps.min() < 1e-12
    curves, flags = adiabatic_spectrum(m, grid)
    ref_curves, ref_flags = _spectrum_lsa(m, grid, stacked=False)
    assert np.abs(curves - ref_curves).max() <= 1e-12
    assert np.array_equal(flags, ref_flags)
    if family == "su3adj8":
        assert ref_flags.any()


@pytest.mark.parametrize("family, kwargs, grid", [
    ("bowtie3", dict(delta=2.0, slope=0.3, eps=1.0), np.linspace(-30.0, 30.0, 241)),
    ("bowtie3", dict(delta=0.3, slope=1.0, eps=1.0), np.linspace(-10.0, 10.0, 7)),
    ("bowtieN", dict(delta=[0.2, 0.3, 0.1], slope=[0.5, -1.0, 1.5], eps=0.5),
     np.linspace(-6.0, 6.0, 201)),
    ("su3six", dict(delta=0.2, slope=0.4, eps=1.0), np.linspace(-10.0, 10.0, 401)),
    ("su3six", dict(delta=0.2, slope=0.4, eps=-1.0), np.linspace(-10.0, 10.0, 401)),
    ("su3adj8", dict(delta=0.2, slope=0.5, eps=0.5), np.linspace(-4.0, 4.0, 33)),
    ("spin", dict(k=5, delta=0.5, slope=1.0), np.linspace(-5.0, 5.0, 161)),
], ids=["bowtie3", "bowtie3-coarse", "bowtieN", "su3six+", "su3six-", "su3adj8", "spin5"])
def test_spectrum_argmax_equals_optimal_assignment(family, kwargs, grid):
    # an overlap above 1/2 is the unique maximum of its row and column, so
    # the row argmax reproduces the optimal assignment bit for bit
    m = build_model(family, **kwargs)
    curves, flags = adiabatic_spectrum(m, grid)
    ref_curves, ref_flags = _spectrum_lsa(m, grid)
    assert np.array_equal(curves, ref_curves)
    assert np.array_equal(flags, ref_flags)


def test_spectrum_csv_shape():
    grid = np.array([0.0, 1.0])
    curves = np.array([[1.0, 2.0], [3.0, 4.0]])
    lines = spectrum_csv_lines(grid, curves)
    assert lines[0] == "t,e1,e2"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,")

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzscatter.laxflow import (
    asymptotic_v3,
    evolve_lax,
    first_row_element,
    lz_closed_form,
    smatrix_spin,
    spin_ladder,
    stochastic_defect,
    survival_weight,
)
from lzscatter.models import SU2, build_model, lift
from lzscatter.numerics import OdeSettings, hermitian_eigs, propagate_unitary

LN2_OVER_PI = math.log(2.0) / math.pi


def test_closed_form_values():
    assert np.allclose(lz_closed_form(0.0, 1.0), np.eye(2))
    half = lz_closed_form(math.sqrt(LN2_OVER_PI), 1.0)
    assert np.allclose(half, np.full((2, 2), 0.5), atol=1e-14)
    assert lz_closed_form(1.0, 1.0)[0, 0] == pytest.approx(math.exp(-math.pi), abs=1e-12)
    with pytest.raises(ValueError):
        lz_closed_form(1.0, 0.0)
    with pytest.raises(ValueError):
        lz_closed_form(1.0, -2.0)


def test_asymptotic_v3_limits():
    assert asymptotic_v3(0.0, 1.0) == -1.0
    assert asymptotic_v3(math.sqrt(LN2_OVER_PI), 1.0) == pytest.approx(0.0, abs=1e-14)
    assert asymptotic_v3(1.0, 1e-3) == pytest.approx(1.0)


def lagrange_projector(m, ladder, index):
    """Spectral projector of ``m`` onto the eigenvalue ``ladder[index]``.

    The paper's construction, kept as the reference for ``smatrix_spin``:
    the interpolation product  prod_{a != i} (m - l_a) / (l_i - l_a), which
    requires ``m`` normal with spectrum equal to the ladder (within 1e-8)
    and pairwise-distinct ladder values.  Its roundoff grows fast with the
    ladder length, so it serves as a reference only for k <= 8.
    """
    m = np.asarray(m, dtype=complex)
    ladder = np.asarray(ladder, dtype=float)
    if not 0 <= index < ladder.size:
        raise IndexError(f"index {index} outside ladder of length {ladder.size}")
    gaps = np.abs(ladder[:, None] - ladder[None, :])[~np.eye(ladder.size, dtype=bool)]
    if gaps.size and gaps.min() < 1e-12:
        raise ValueError("ladder values must be pairwise distinct")
    spectrum = np.sort(np.linalg.eigvals(m).real)
    mismatch = float(np.abs(spectrum - np.sort(ladder)).max())
    if mismatch > 1e-8:
        raise ValueError(f"spectrum does not match ladder: max deviation {mismatch:.3e}")
    n = m.shape[0]
    proj = np.eye(n, dtype=complex)
    li = ladder[index]
    for a, la in enumerate(ladder):
        if a != index:
            proj = proj @ (m - la * np.eye(n)) / (li - la)
    return proj


def projector_smatrix(k, delta, a):
    """S[i, j] = tr(P_V[i] P_-Z[j]) for the asymptotic flow V = v1 X + v3 Z."""
    v3 = asymptotic_v3(delta, a)
    v1 = math.sqrt(max(0.0, 1.0 - v3 * v3))
    x, _, z = lift(SU2, ("sym", k - 1))
    ladder = spin_ladder(k)
    proj_v = [lagrange_projector(v1 * x + v3 * z, ladder, i) for i in range(k)]
    proj_z = [lagrange_projector(-z, ladder, i) for i in range(k)]
    return np.array([[np.trace(pv @ pz).real for pz in proj_z] for pv in proj_v])


def test_projector_diagonal_cases():
    p = lagrange_projector(np.diag([0.5, -0.5]), [-0.5, 0.5], 1)
    assert np.allclose(p, np.diag([1.0, 0.0]))
    p0 = lagrange_projector(np.diag([1.0, 0.0, -1.0]), [-1.0, 0.0, 1.0], 1)
    assert np.allclose(p0, np.diag([0.0, 1.0, 0.0]))


def test_projector_rank_one_spin_half():
    v = np.array([0.6, 0.0, 0.8])
    vmat = np.tensordot(v, SU2, axes=1)
    p_plus = lagrange_projector(vmat, [-0.5, 0.5], 1)
    expect = 0.5 * np.eye(2) + vmat
    assert np.abs(p_plus - expect).max() < 1e-14


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_projector_idempotent_and_complete(k):
    v = np.array([0.48, -0.36, 0.8])
    v = v / np.linalg.norm(v)
    vmat = np.tensordot(v, lift(SU2, ("sym", k - 1)), axes=1)
    ladder = spin_ladder(k)
    total = np.zeros((k, k), dtype=complex)
    for i in range(k):
        p = lagrange_projector(vmat, ladder, i)
        assert np.abs(p @ p - p).max() < 1e-10
        total += p
    assert np.abs(total - np.eye(k)).max() < 1e-10


def test_projector_matches_eigenvector_outer_product():
    # independent route: dense eigendecomposition
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = raw + raw.conj().T
    w, vecs = hermitian_eigs(m)
    for i in range(4):
        direct = np.outer(vecs[:, i], vecs[:, i].conj())
        assert np.abs(lagrange_projector(m, w, i) - direct).max() < 1e-9


def test_projector_validation():
    with pytest.raises(ValueError, match="distinct"):
        lagrange_projector(np.diag([1.0, 1.0]), [1.0, 1.0], 0)
    with pytest.raises(ValueError, match="spectrum"):
        lagrange_projector(np.diag([1.0, -1.0]), [-0.5, 0.5], 0)
    with pytest.raises(IndexError):
        lagrange_projector(np.diag([0.5, -0.5]), [-0.5, 0.5], 2)


def test_smatrix_spin_k2_equals_closed_form():
    for d in (0.1, 0.7, 1.6):
        for a in (0.3, 1.0, 2.0):
            dev = np.abs(smatrix_spin(2, d, a) - lz_closed_form(d, a)).max()
            assert dev < 1e-12


def test_smatrix_spin_k3_corrected_center():
    d, a = 0.8, 1.0
    u = survival_weight(d, a)
    v = 1.0 - u
    s = smatrix_spin(3, d, a)
    expect = np.array(
        [
            [u * u, 2 * u * v, v * v],
            [2 * u * v, (1 - 2 * u) ** 2, 2 * u * v],
            [v * v, 2 * u * v, u * u],
        ]
    )
    assert np.abs(s - expect).max() < 1e-12
    # the same matrix in the (m=+1, m=-1, m=0) basis order
    p = [0, 2, 1]
    permuted_order = np.array(
        [
            [u * u, v * v, 2 * u * v],
            [v * v, u * u, 2 * u * v],
            [2 * u * v, 2 * u * v, (1 - 2 * u) ** 2],
        ]
    )
    assert np.abs(s[np.ix_(p, p)] - permuted_order).max() < 1e-12


def test_smatrix_spin_k4_with_corrected_33():
    d, a = 0.6, 1.1
    u = survival_weight(d, a)
    v = 1.0 - u
    s = smatrix_spin(4, d, a)
    expect = np.array(
        [
            [u ** 3, 3 * u * u * v, 3 * u * v * v, v ** 3],
            [3 * u * u * v, u * (3 * u - 2) ** 2, (1 - 3 * u) ** 2 * v, 3 * u * v * v],
            [3 * u * v * v, (1 - 3 * u) ** 2 * v, u * (3 * u - 2) ** 2, 3 * u * u * v],
            [v ** 3, 3 * u * v * v, 3 * u * u * v, u ** 3],
        ]
    )
    assert np.abs(s - expect).max() < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 32, 64])
def test_smatrix_spin_identity_at_zero_coupling(k):
    assert np.abs(smatrix_spin(k, 0.0, 1.0) - np.eye(k)).max() < 1e-14


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 64),
    st.floats(0.05, 2.0),
    st.floats(0.2, 2.0),
)
def test_smatrix_spin_invariants(k, d, a):
    s = smatrix_spin(k, d, a)
    assert stochastic_defect(s) < 1e-13
    row = np.array([first_row_element(k, d, a, j) for j in range(1, k + 1)])
    assert np.abs(s[0] - row).max() < 1e-14
    assert np.abs(s - s.T).max() < 1e-14
    # persymmetry: eigenvector roundoff grows like k eps, 1.1e-14 at k = 64
    assert np.abs(s - s[::-1, ::-1]).max() < 2e-14
    assert s.min() >= 0.0 and s.max() <= 1.0 + 1e-14


@pytest.mark.parametrize("k", range(2, 9))
def test_smatrix_spin_matches_projector_product(k):
    for d, a in ((0.1, 0.3), (0.55, 0.9), (0.8, 1.0), (1.6, 2.0)):
        assert np.abs(smatrix_spin(k, d, a) - projector_smatrix(k, d, a)).max() < 1e-12


def test_first_row_examples():
    d, a = 0.9, 1.3
    u = survival_weight(d, a)
    v = 1.0 - u
    assert first_row_element(4, d, a, 1) == pytest.approx(u ** 3, rel=1e-14)
    assert first_row_element(4, d, a, 2) == pytest.approx(3 * u * u * v, rel=1e-14)
    assert first_row_element(3, d, a, 3) == pytest.approx(v * v, rel=1e-14)
    with pytest.raises(IndexError):
        first_row_element(4, d, a, 5)
    with pytest.raises(IndexError):
        first_row_element(4, d, a, 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_first_row_matches_smatrix(n):
    d, a = 0.55, 0.9
    s = smatrix_spin(n, d, a)
    row = np.array([first_row_element(n, d, a, j) for j in range(1, n + 1)])
    assert np.abs(s[0] - row).max() < 1e-12
    # binomial identity keeps the row summing to one
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_evolve_lax_commuting_generator():
    m = build_model("spin", k=3, delta=0.0, slope=1.0)
    v_mat, bloch = evolve_lax(m, (0.0, 0.0, 1.0), -30.0, 30.0,
                              OdeSettings(rtol=1e-9, atol=1e-11))
    z = lift(SU2[2], ("sym", 2))
    assert np.abs(v_mat - z).max() < 1e-10
    assert bloch.v3 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_evolve_lax_isospectral(k):
    m = build_model("spin", k=k, delta=1.0, slope=1.0)
    settings_ = OdeSettings(rtol=1e-9, atol=1e-11)
    v_mat, bloch = evolve_lax(m, (0.3, -0.4, 0.8), -40.0, 40.0, settings_)
    ladder = spin_ladder(k) * math.sqrt(0.3 ** 2 + 0.4 ** 2 + 0.8 ** 2)
    drift = np.abs(np.linalg.eigvalsh(v_mat) - ladder).max()
    assert drift < 1e-8
    assert bloch.norm == pytest.approx(math.sqrt(0.89), abs=1e-9)


def test_evolve_lax_v3_reaches_crossing_asymptote():
    # finite sweep window, so allow the residual oscillation envelope
    m = build_model("spin", k=2, delta=1.0, slope=1.0)
    _, bloch = evolve_lax(m, (0.0, 0.0, 1.0), -100.0, 100.0,
                          OdeSettings(rtol=1e-9, atol=1e-11))
    assert abs(abs(bloch.v3) - abs(asymptotic_v3(1.0, 1.0))) < 2e-2


def test_evolve_lax_permuted_basis_family():
    m = build_model("adjoint3", delta=0.0, slope=1.0)
    v_mat, bloch = evolve_lax(m, (0.0, 0.0, 1.0), -20.0, 20.0,
                              OdeSettings(rtol=1e-9, atol=1e-11))
    p = [0, 2, 1]  # Ad(lz2) has the spin-1 levels in the order m = +1, -1, 0
    z_perm = lift(SU2[2], ("sym", 2))[np.ix_(p, p)]
    assert np.abs(v_mat - z_perm).max() < 1e-10
    assert bloch.v3 == pytest.approx(1.0, abs=1e-10)


def test_evolve_lax_rejects_non_spin_models():
    bt = build_model("bowtie3", delta=0.5, slope=1.0, eps=1.0)
    with pytest.raises(ValueError, match="spin-family"):
        evolve_lax(bt, (0, 0, 1), -1.0, 1.0)


@pytest.mark.parametrize("family, k", [("spin", k) for k in range(2, 9)] + [("adjoint3", None)])
def test_evolve_lax_lift_matches_the_direct_propagation(family, k):
    # the route evolve_lax does not take: the full k x k propagator of -H
    m = build_model(family, k=k, delta=0.7, slope=1.3)
    settings_ = OdeSettings(rtol=1e-9, atol=1e-11)
    p = [0, 2, 1] if family == "adjoint3" else list(range(m.k))  # Ad(lz2) levels m = +1, -1, 0
    gens = [g[np.ix_(p, p)] for g in lift(SU2, ("sym", m.k - 1))]
    w = propagate_unitary((-m.a_of(), -m.b), -40.0, 25.0, settings_)
    rng = np.random.default_rng(m.k)
    for _ in range(3):
        v0 = rng.normal(size=3)
        direct = w @ sum(c * g for c, g in zip(v0, gens)) @ w.conj().T
        v_mat, bloch = evolve_lax(m, v0, -40.0, 25.0, settings_)
        assert np.abs(v_mat - direct).max() <= 1e-7
        assert np.abs(v_mat - sum(c * g for c, g in zip(bloch.as_array(), gens))).max() <= 1e-14
        assert bloch.norm == pytest.approx(float(np.linalg.norm(v0)), rel=1e-12)


def test_evolve_lax_rejects_a_spin_lift_without_its_base():
    # the 2 x 2 pair is unlifted from the model's own coefficients: a copy
    # with other ones is served with its own pair, a copy that names no
    # representation has no 2 x 2 pair to give
    m = build_model("spin", k=4, delta=0.5, slope=1.0)
    scaled = dataclasses.replace(m, a0=2.0 * m.a0)
    settings_ = OdeSettings(rtol=1e-9, atol=1e-11)
    v0 = np.array([0.3, -0.4, 0.8])
    gens = lift(SU2, ("sym", 3))
    w = propagate_unitary((-scaled.a0, -scaled.b), -20.0, 15.0, settings_)
    direct = w @ np.tensordot(v0, gens, axes=1) @ w.conj().T
    v_mat, _ = evolve_lax(scaled, v0, -20.0, 15.0, settings_)
    assert np.abs(v_mat - direct).max() <= 1e-7
    with pytest.raises(ValueError, match="spin-family"):
        evolve_lax(dataclasses.replace(m, rep=None), (0, 0, 1), -1.0, 1.0)


@pytest.mark.parametrize("bad", [(np.nan, 0.0, 1.0), (0.0, np.inf, 1.0), (0.0, 0.0, -np.inf)])
def test_evolve_lax_rejects_non_finite_v0(bad):
    m = build_model("spin", k=3, delta=0.5, slope=1.0)
    with pytest.raises(ValueError, match="v0 must be finite"):
        evolve_lax(m, bad, -1.0, 1.0)

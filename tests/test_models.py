import itertools
import json
import math
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzscatter.models import (
    MissingPartnerError,
    SingularPartnerError,
    UnknownFamilyError,
    build_model,
    build_spin_rep,
    lift,
    model_from_descriptor,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ32 = math.sqrt(1.5)


def test_spin_rep_k2_is_half_pauli():
    rep = build_spin_rep(2)
    assert np.allclose(rep.x, np.array([[0, 0.5], [0.5, 0]]))
    assert np.allclose(rep.z, np.diag([0.5, -0.5]))


def test_spin_rep_k3_offdiagonals():
    rep = build_spin_rep(3)
    assert np.allclose(np.diag(rep.x, 1).real, [1 / SQ2, 1 / SQ2])
    assert np.allclose(np.diag(rep.z), [1.0, 0.0, -1.0])


def test_spin_rep_k4_central_amplitude():
    # raising amplitude into m = 1/2 equals 2, giving the unit X entry
    rep = build_spin_rep(4)
    assert np.allclose(np.diag(rep.x, 1).real, [SQ3 / 2, 1.0, SQ3 / 2])


@pytest.mark.parametrize("k", range(2, 9))
def test_spin_rep_algebra(k):
    rep = build_spin_rep(k)
    for a, b, c in ((rep.x, rep.y, rep.z), (rep.y, rep.z, rep.x), (rep.z, rep.x, rep.y)):
        assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-13


def test_spin_rep_rejects_k1():
    with pytest.raises(ValueError):
        build_spin_rep(1)


def test_lz2_matches_two_level_form():
    # lz2 is built as spin k = 2; its coefficients are the two-level form exactly
    for d, a in ((1.0, 1.0), (0.7, 1.3), (-0.35, 2.5)):
        m = build_model("lz2", delta=d, slope=a)
        assert np.array_equal(m.a0, np.array([[0.0, d], [d, 0.0]], dtype=complex))
        assert np.array_equal(m.a1, np.zeros((2, 2), dtype=complex))
        assert np.array_equal(m.b, np.diag([a, -a]).astype(complex))
        assert (m.k, m.eps, m.rep) == (2, None, None)


def test_spin_family_reproduces_lz2_at_k2():
    m2 = build_model("spin", k=2, delta=0.7, slope=1.3)
    lz = build_model("lz2", delta=0.7, slope=1.3)
    for t in (-2.0, 0.0, 1.5):
        assert np.abs(m2.hamiltonian(t) - lz.hamiltonian(t)).max() < 1e-15


def test_spin4_matches_four_level_matrix():
    d, a = 0.5, 1.2
    m = build_model("spin", k=4, delta=d, slope=a)
    t = 0.9
    expect = np.array(
        [
            [3 * a * t, SQ3 * d, 0, 0],
            [SQ3 * d, a * t, 2 * d, 0],
            [0, 2 * d, -a * t, SQ3 * d],
            [0, 0, SQ3 * d, -3 * a * t],
        ]
    )
    assert np.abs(m.hamiltonian(t) - expect).max() < 1e-14


def test_adjoint3_matrix_and_permutation():
    d, a = 0.4, 0.9
    m = build_model("adjoint3", delta=d, slope=a)
    t = 1.7
    expect = np.array(
        [
            [2 * a * t, 0, SQ2 * d],
            [0, -2 * a * t, SQ2 * d],
            [SQ2 * d, SQ2 * d, 0],
        ]
    )
    assert np.abs(m.hamiltonian(t) - expect).max() < 1e-14
    # Ad(lz2) is the spin-1 sweep with its levels in the order (m = +1, -1, 0)
    p = [0, 2, 1]
    rep = build_spin_rep(3)
    assert m.rep == "adjoint"
    assert np.array_equal(m.a0, 2 * d * rep.x[np.ix_(p, p)])
    assert np.array_equal(m.b, 2 * a * rep.z[np.ix_(p, p)])


def test_bowtie3_entries():
    d, a, e = 0.3, 1.1, 0.8
    m = build_model("bowtie3", delta=d, slope=a, eps=e)
    t = -0.4
    expect_h = np.array([[e, 0, d], [0, -e, d], [d, d, a * t]])
    assert np.abs(m.hamiltonian(t) - expect_h).max() < 1e-15
    w = d * d / (a * e)
    expect_e = np.array(
        [
            [t, -w, -d / a],
            [-w, -t, d / a],
            [-d / a, d / a, e / a - w],
        ]
    )
    assert np.abs(m.partner(t) - expect_e).max() < 1e-15


@pytest.mark.parametrize("d, a, e", [(0.3, 1.1, 0.8), (-0.45, 0.6, -1.7), (1.2, 2.5, 3e4)])
def test_bowtie3_is_bowtien_with_one_sweeping_level(d, a, e):
    m = build_model("bowtie3", delta=d, slope=a, eps=e)
    n = build_model("bowtieN", delta=[d], slope=[a], eps=e)
    c, w = d / a, d * d / a
    written = {
        "a0": [[0.0, 0.0, d], [0.0, 0.0, d], [d, d, 0.0]],
        "a1": np.diag([1.0, -1.0, 0.0]),
        "b": np.diag([0.0, 0.0, a]),
        "e_inv": [[0.0, -w, 0.0], [-w, 0.0, 0.0], [0.0, 0.0, -w]],
        "e_0": [[0.0, 0.0, -c], [0.0, 0.0, c], [-c, c, 0.0]],
        "e_eps": np.diag([0.0, 0.0, 1.0 / a]),
        "e1": np.diag([1.0, -1.0, 0.0]),
    }
    for name, matrix in written.items():
        expect = np.array(matrix, dtype=complex).tobytes()
        assert getattr(m, name).tobytes() == getattr(n, name).tobytes() == expect, name
    assert m.descriptor() == {"family": "bowtie3", "delta": d, "slope": a, "eps": e}


def test_bowtie3_decoupled_diagonal():
    m = build_model("bowtie3", delta=0.0, slope=1.0, eps=0.7)
    assert np.allclose(m.hamiltonian(1.0), np.diag([0.7, -0.7, 1.0]))


def test_bowtie3_null_state_at_eps_zero():
    m = build_model("bowtie3", delta=0.4, slope=1.0, eps=0.0)
    dark = np.array([1.0, -1.0, 0.0]) / SQ2
    for t in (-3.0, 0.0, 2.5, 17.0):
        assert np.abs(m.hamiltonian(t) @ dark).max() == 0.0


def test_su3six_diagonal_and_couplings():
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0)
    h0 = m.hamiltonian(0.0)
    assert np.allclose(np.diag(h0).real, [2, 0, -2, 1, -1, 0])
    assert h0[0, 3] == pytest.approx(SQ2 * 0.2)
    assert h0[1, 3] == h0[1, 4] == pytest.approx(0.2)
    assert h0[3, 5] == h0[4, 5] == pytest.approx(SQ2 * 0.2)
    assert np.allclose(np.diag(m.b).real, [0, 0, 0, 0.4, 0.4, 0.8])


def test_su3six_full_matrix_entry_for_entry():
    d, a, e, t = 0.2, 0.4, 1.0, 0.7
    m = build_model("su3six", delta=d, slope=a, eps=e)
    s2d = SQ2 * d
    expect = np.array(
        [
            [2 * e, 0, 0, s2d, 0, 0],
            [0, 0, 0, d, d, 0],
            [0, 0, -2 * e, 0, s2d, 0],
            [s2d, d, 0, a * t + e, 0, s2d],
            [0, d, s2d, 0, a * t - e, s2d],
            [0, 0, 0, s2d, s2d, 2 * a * t],
        ],
        dtype=complex,
    )
    assert np.abs(m.hamiltonian(t) - expect).max() < 1e-15


def test_su3adj8_full_matrix_entry_for_entry():
    d, b, e, t = 0.2, 0.4, 1.0, 0.7
    m = build_model("su3adj8", delta=d, slope=b, eps=e)
    i32 = 1j * SQ32 * d
    i2 = 1j * SQ2 * d
    ih = 1j * d / SQ2
    expect = np.array(
        [
            [0, 0, 0, 0, 0, -i32, -i32, 0],
            [0, 0, 0, 0, i2, ih, ih, i2],
            [0, 0, -2 * e, 0, d, 0, d, 0],
            [0, 0, 0, 2 * e, 0, -d, 0, -d],
            [0, -i2, d, 0, -b * t - e, 0, 0, 0],
            [i32, -ih, 0, -d, 0, e - b * t, 0, 0],
            [i32, -ih, d, 0, 0, 0, b * t - e, 0],
            [0, -i2, 0, -d, 0, 0, 0, b * t + e],
        ]
    )
    assert np.abs(m.hamiltonian(t) - expect).max() < 1e-15
    assert np.allclose(np.diag(m.b).real, [0, 0, 0, 0, -b, -b, b, b])


def _hermitize(upper):
    return upper + upper.conj().T - np.diag(np.diag(upper).real)


def _su3six_written(d, a):
    """The 6-level coefficients written out entry by entry, independent of the lift."""
    s2d = SQ2 * d
    w = d * d / a
    flat = np.diag([2.0, 0.0, -2.0, 1.0, -1.0, 0.0])
    a0 = np.zeros((6, 6), dtype=complex)
    a0[0, 3] = a0[2, 4] = a0[3, 5] = a0[4, 5] = s2d
    a0[1, 3] = a0[1, 4] = d
    e_inv = np.zeros((6, 6), dtype=complex)
    e_inv[0, 1] = e_inv[1, 2] = -SQ2 * w
    # the slot coupling the two equal-slope sweeping levels must carry the
    # plain 1/eps weight; anything else breaks the commutation residual
    e_inv[3, 4] = -w
    e_inv[3, 3] = e_inv[4, 4] = -w
    e_inv[5, 5] = -2.0 * w
    e_0 = np.zeros((6, 6), dtype=complex)
    e_0[0, 3] = e_0[3, 5] = -s2d / a
    e_0[2, 4] = e_0[4, 5] = s2d / a
    e_0[1, 3] = d / a
    e_0[1, 4] = -d / a
    return dict(a0=_hermitize(a0), a1=flat, b=np.diag([0.0, 0.0, 0.0, a, a, 2 * a]),
                e_inv=_hermitize(e_inv), e_0=_hermitize(e_0),
                e_eps=np.diag([0.0, 0.0, 0.0, 1.0 / a, 1.0 / a, 2.0 / a]), e1=flat)


def _su3adj8_written(d, b):
    """The 8-level coefficients written out entry by entry, independent of the lift."""
    s2d = SQ2 * d
    s32d = SQ32 * d
    w = d * d / b
    flat = np.diag([0.0, 0.0, -2.0, 2.0, -1.0, 1.0, -1.0, 1.0])
    a0 = np.zeros((8, 8), dtype=complex)
    a0[0, 5] = a0[0, 6] = -1j * s32d
    a0[1, 4] = a0[1, 7] = 1j * s2d
    a0[1, 5] = a0[1, 6] = 1j * d / SQ2
    a0[2, 4] = a0[2, 6] = d
    a0[3, 5] = a0[3, 7] = -d
    # the two flat zero-weight levels admit a basis rotation that leaves H
    # unchanged only together with a matching rotation of E; this partner is
    # the unique one (up to c(eps) I) in the same basis as a0
    e_inv = np.zeros((8, 8), dtype=complex)
    e_inv[4, 4] = e_inv[5, 5] = e_inv[6, 7] = w
    e_inv[6, 6] = e_inv[7, 7] = e_inv[4, 5] = -w
    e_inv[0, 2] = e_inv[0, 3] = 1j * SQ32 * w
    e_inv[1, 2] = e_inv[1, 3] = 1j * w / SQ2
    e_0 = np.zeros((8, 8), dtype=complex)
    e_0[0, 5] = e_0[0, 6] = 1j * s32d / b
    e_0[1, 4] = e_0[1, 7] = 1j * s2d / b
    e_0[1, 5] = e_0[1, 6] = -1j * d / (SQ2 * b)
    e_0[2, 4] = e_0[3, 5] = -d / b
    e_0[2, 6] = e_0[3, 7] = d / b
    return dict(a0=_hermitize(a0), a1=flat, b=np.diag([0.0, 0.0, 0.0, 0.0, -b, -b, b, b]),
                e_inv=_hermitize(e_inv), e_0=_hermitize(e_0),
                e_eps=np.diag([0.0, 0.0, 0.0, 0.0, -1.0 / b, -1.0 / b, 1.0 / b, 1.0 / b]), e1=flat)


@pytest.mark.parametrize("family, written", [("su3six", _su3six_written), ("su3adj8", _su3adj8_written)])
@pytest.mark.parametrize("d, a", [(0.2, 0.4), (-0.45, 1.3), (1.7, 0.05), (3.0, 25.0)])
@pytest.mark.parametrize("eps", [1.0, -0.6, 3e4])
def test_lifts_equal_the_written_coefficients(family, written, d, a, eps):
    # Sym^2(bowtie3) and Ad(bowtie3) are the written 6- and 8-level models,
    # coefficient by coefficient, with no phase gauge and the same zeros
    m = build_model(family, delta=d, slope=a, eps=eps)
    assert (m.k, m.eps, m.rep) == (len(m.a0), eps, {"su3six": ("sym", 2), "su3adj8": "adjoint"}[family])
    for name, expect in written(d, a).items():
        got = getattr(m, name)
        assert np.array_equal(got == 0, expect == 0), name
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max(), name
        assert np.array_equal(got, got.conj().T), name


def _sym_reference(x, p):
    """Sym^p(x) as ``V^T (x (x) 1 ... + ... + 1 ... (x) x) V`` on the symmetric subspace.

    V maps each multiset of p levels, in colex order, to its normalized
    symmetric tensor: the kron-projector form of the symmetric power,
    built without occupation numbers.
    """
    n = len(x)
    combos = sorted(itertools.combinations_with_replacement(range(n), p), key=lambda c: c[::-1])
    v = np.zeros((n ** p, len(combos)))
    for col, combo in enumerate(combos):
        orderings = set(itertools.permutations(combo))
        for ordering in orderings:
            v[np.ravel_multi_index(ordering, (n,) * p), col] = 1.0 / math.sqrt(len(orderings))
    eye = np.eye(n)
    return v.T @ sum(reduce(np.kron, [x if slot == s else eye for s in range(p)])
                     for slot in range(p)) @ v


_REPS = [("sym", p) for p in range(1, 5)] + ["adjoint"]


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3]), rep=st.sampled_from(_REPS), seed=st.integers(0, 2 ** 32 - 1))
def test_lift_is_a_lie_algebra_homomorphism(n, rep, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    rx, ry = lift(x, rep), lift(y, rep)
    scale = np.abs(rx).max() * np.abs(ry).max()
    assert np.abs(lift(x @ y - y @ x, rep) - (rx @ ry - ry @ rx)).max() <= 1e-13 * scale
    assert np.abs(lift(x.conj().T, rep) - rx.conj().T).max() <= 1e-15 * np.abs(rx).max()
    # a stack lifts member by member
    assert np.abs(lift(np.stack([x, y]), rep) - np.stack([rx, ry])).max() <= 1e-14 * max(np.abs(rx).max(), np.abs(ry).max())
    identity = lift(np.eye(n), rep)
    if rep == "adjoint":
        assert rx.shape == (n * n - 1,) * 2
        assert np.abs(identity).max() == 0.0
    else:
        assert np.array_equal(identity, rep[1] * np.eye(len(identity)))
        assert np.abs(rx - _sym_reference(x, rep[1])).max() <= 1e-14 * np.abs(rx).max()


def test_lift_rejects_unknown_representations():
    with pytest.raises(ValueError, match="n = 2 and 3"):
        lift(np.eye(4), "adjoint")
    for rep in (("sym", 0), ("sym", 1.5), "sym", ("alt", 2)):
        with pytest.raises(ValueError, match="unknown representation"):
            lift(np.eye(2), rep)


@pytest.mark.parametrize(
    "family,params",
    [
        ("lz2", dict(delta=0.6, slope=1.0)),
        ("spin", dict(k=5, delta=0.6, slope=1.0)),
        ("adjoint3", dict(delta=0.6, slope=1.0)),
        ("bowtie3", dict(delta=0.6, slope=1.0, eps=0.9)),
        ("bowtieN", dict(delta=[0.2, 0.3], slope=[0.5, -1.5], eps=0.9)),
        ("su3six", dict(delta=0.6, slope=1.0, eps=0.9)),
        ("su3adj8", dict(delta=0.6, slope=1.0, eps=0.9)),
    ],
)
def test_hermiticity_is_exact(family, params):
    m = build_model(family, **params)
    rng = np.random.default_rng(42)
    for _ in range(5):
        h = m.hamiltonian(rng.uniform(-10, 10), rng.uniform(0.2, 3))
        assert np.abs(h - h.conj().T).max() == 0.0


def test_spin_asymptotic_slopes_are_twice_a_m():
    m = build_model("spin", k=5, delta=0.3, slope=0.7)
    j = 2.0
    expect = [2 * 0.7 * (j - i) for i in range(5)]
    assert np.allclose(np.diag(m.b).real, expect)


def test_unknown_family():
    with pytest.raises(UnknownFamilyError, match="valid families"):
        build_model("heisenberg", delta=1, slope=1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_model("spin", k=1, delta=1, slope=1)
    with pytest.raises(ValueError):
        build_model("lz2", delta=1, slope=0.0)
    with pytest.raises(ValueError):
        build_model("bowtie3", delta=1, slope=1)  # missing eps
    with pytest.raises(ValueError, match="increasing"):
        build_model("bowtieN", delta=[0.1, 0.1], slope=[2.0, 1.0], eps=1.0)
    with pytest.raises(ValueError, match="nonzero"):
        build_model("bowtieN", delta=[0.1, 0.1], slope=[0.0, 1.0], eps=1.0)
    with pytest.raises(ValueError):
        build_model("bowtieN", delta=[0.1], slope=[1.0, 2.0], eps=1.0)
    with pytest.raises(TypeError):
        build_model("bowtie3", delta=0.3, slope=1.0, eps=1.0, partnerb=0.8)


@pytest.mark.parametrize("k", [3.7, 3.0, [3], "3", True, 1, None])
def test_spin_k_must_be_an_integer_of_at_least_two(k):
    # a fractional k is not truncated and a list is not a TypeError
    with pytest.raises(ValueError, match=rf"k = {re.escape(repr(k))}"):
        model_from_descriptor({"family": "spin", "k": k, "delta": 0.3, "slope": 1.0})
    with pytest.raises(ValueError, match="integer k >= 2"):
        build_spin_rep(k)


@pytest.mark.parametrize("family, params, match", [
    ("bowtie3", dict(delta=0.3, slope=1.0, eps=1.0, k=7), "spin family only"),
    ("lz2", dict(delta=0.3, slope=1.0, k=2), "spin family only"),
    ("adjoint3", dict(delta=0.3, slope=1.0, k=3), "spin family only"),
    ("su3adj8", dict(delta=0.2, slope=0.4, eps=1.0, k=8), "spin family only"),
    ("spin", dict(k=3, delta=0.3, slope=1.0, eps=5.0), "takes no eps"),
    ("lz2", dict(delta=0.3, slope=1.0, eps=0.0), "takes no eps"),
    ("adjoint3", dict(delta=0.3, slope=1.0, eps=1.0), "takes no eps"),
    ("su3six", dict(delta=0.2, slope=0.4), "requires eps"),
])
def test_arguments_a_family_ignores_are_rejected(family, params, match):
    with pytest.raises(ValueError, match=match):
        build_model(family, **params)


@pytest.mark.parametrize("family, params", [
    ("lz2", dict(delta=float("nan"), slope=1.0)),
    ("spin", dict(k=3, delta=1.0, slope=float("inf"))),
    ("bowtie3", dict(delta=0.3, slope=1.0, eps=float("nan"))),
    ("bowtieN", dict(delta=[0.1, float("inf")], slope=[1.0, 2.0], eps=1.0)),
])
def test_non_finite_parameters_rejected(family, params):
    with pytest.raises(ValueError, match="must be finite"):
        build_model(family, **params)


def test_partner_errors():
    lz = build_model("lz2", delta=1.0, slope=1.0)
    with pytest.raises(MissingPartnerError):
        lz.partner(0.0)
    bt = build_model("bowtie3", delta=0.5, slope=1.0, eps=0.0)
    with pytest.raises(SingularPartnerError):
        bt.partner(0.0)
    # explicit eps override reaches the regular branch
    assert np.isfinite(bt.partner(0.0, eps=0.5)).all()


@pytest.mark.parametrize(
    "family,params",
    [
        ("lz2", dict(delta=0.25, slope=1.75)),
        ("spin", dict(k=4, delta=0.25, slope=1.75)),
        ("adjoint3", dict(delta=0.25, slope=1.75)),
        ("bowtie3", dict(delta=0.25, slope=1.75, eps=-0.6)),
        ("bowtieN", dict(delta=[0.2, 0.1, 0.4], slope=[0.5, -1.5, 2.5], eps=0.6)),
        ("su3six", dict(delta=0.25, slope=1.75, eps=0.6)),
        ("su3adj8", dict(delta=0.25, slope=1.75, eps=0.6)),
    ],
)
def test_descriptor_round_trip_is_exact(family, params):
    m1 = build_model(family, **params)
    blob = json.dumps(m1.descriptor(), sort_keys=True)
    m2 = model_from_descriptor(json.loads(blob))
    assert m2.descriptor() == m1.descriptor()
    for t in (-1.3, 0.0, 2.2):
        assert np.array_equal(m1.hamiltonian(t), m2.hamiltonian(t))
        assert np.array_equal(m1.b, m2.b)
        if m1.has_partner and m1.eps != 0.0:
            assert np.array_equal(m1.partner(t), m2.partner(t))


def test_descriptor_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown descriptor keys"):
        model_from_descriptor({"family": "lz2", "delta": 1, "slope": 1, "phase": 3})

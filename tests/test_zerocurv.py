import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzscatter.models import SingularPartnerError, build_model
from lzscatter.numerics import commutator
from lzscatter.zerocurv import PASS_THRESHOLD, curvature_residual, verify_pair


def bowtie3():
    return build_model("bowtie3", delta=0.3, slope=1.1, eps=0.8)


def test_bowtie3_residual_exact_derivative():
    m = bowtie3()
    rng = np.random.default_rng(0)
    for _ in range(6):
        r = curvature_residual(m, rng.uniform(-8, 8), rng.uniform(0.2, 3.0))
        assert np.abs(r).max() <= 1e-12


def test_residual_is_hermitian():
    m = build_model("su3adj8", delta=0.35, slope=0.7, eps=1.3)
    r = curvature_residual(m, 2.2, 0.9)
    assert np.abs(r - r.conj().T).max() < 1e-12


def test_finite_difference_route_agrees():
    # catalog A(eps) entries are linear in eps, so the central difference
    # reproduces the exact derivative to roundoff
    m = bowtie3()
    r = curvature_residual(m, 1.5, 0.9, delta=1e-4 * 0.9)
    assert np.abs(r).max() < 1e-10


def test_finite_difference_step_validation():
    m = bowtie3()
    with pytest.raises(ValueError):
        curvature_residual(m, 0.0, 1.0, delta=0.0)
    with pytest.raises(ValueError):
        curvature_residual(m, 0.0, 1.0, delta=0.1)


def test_missing_and_singular_partner():
    lz = build_model("lz2", delta=1.0, slope=1.0)
    with pytest.raises(Exception, match="no partner"):
        curvature_residual(lz, 0.0, 1.0)
    m = bowtie3()
    with pytest.raises(SingularPartnerError):
        curvature_residual(m, 0.0, 0.0)


@pytest.mark.parametrize(
    "family,params",
    [
        ("bowtie3", dict(delta=0.3, slope=1.1, eps=0.8)),
        ("bowtieN", dict(delta=[0.21, 0.4, 0.13], slope=[0.6, -1.4, 2.3], eps=0.9)),
        ("su3six", dict(delta=0.2, slope=0.4, eps=1.0)),
        ("su3adj8", dict(delta=0.2, slope=0.4, eps=1.0)),
    ],
)
def test_verify_pair_passes(family, params):
    report = verify_pair(build_model(family, **params))
    assert report.passed
    assert report.max_residual <= PASS_THRESHOLD


def test_verify_pair_detects_broken_partner():
    m = bowtie3()
    zero = np.zeros((3, 3), dtype=complex)
    broken = dataclasses.replace(m, e_inv=zero, e_0=zero, e_eps=zero)
    report = verify_pair(broken)
    assert not report.passed
    # the residual is set by the scale of dH/deps once E is wrong
    assert report.max_residual > 0.5


def test_verify_pair_detects_mismatched_symbol():
    # the partner coupling written with an independent symbol must equal
    # the sweep rate; any other value leaves a residual above 1e-3
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0, partner_b=0.8)
    report = verify_pair(m)
    assert not report.passed
    assert report.max_residual > 1e-3


def test_verify_pair_detects_wrong_equal_slope_weight():
    # doubled 1/eps weight on the equal-slope pair slot: also detectable
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0)
    skewed = m.e_inv.copy()
    skewed[3, 4] *= np.sqrt(2.0)
    skewed[4, 3] *= np.sqrt(2.0)
    report = verify_pair(dataclasses.replace(m, e_inv=skewed))
    assert not report.passed
    assert report.max_residual > 1e-3


def test_verdict_stable_under_grid_refinement():
    m = build_model("su3adj8", delta=0.25, slope=0.5, eps=0.7)
    base = verify_pair(m)
    fine_t = np.linspace(-10, 10, 11)
    fine_e = [e for e in np.linspace(-3, 3, 13) if e != 0.0]
    refined = verify_pair(m, t_grid=fine_t, eps_grid=fine_e)
    assert base.passed == refined.passed


def test_grid_rejects_pole():
    with pytest.raises(ValueError, match="pole"):
        verify_pair(bowtie3(), eps_grid=[0.0, 1.0])


def test_report_json_shape():
    report = verify_pair(bowtie3())
    blob = report.to_json_dict()
    assert set(blob) == {"family", "max_residual", "worst_point", "pass"}
    assert set(blob["worst_point"]) == {"t", "eps"}
    assert blob["pass"] is True


# Exact certificate.  With H = a0 + eps a1 + t b and
# E = e_inv / eps + e_0 + eps e_eps + t e1, the residual
# dH/deps - dE/dt + i [E, H] is a Laurent polynomial in (t, eps); zero
# curvature holds for all (t, eps) iff its eight coefficients vanish.


def laurent_terms(m):
    """Coefficient matrix of each residual monomial, keyed by the monomial."""
    c = commutator
    return {
        "1/eps": 1j * c(m.e_inv, m.a0),
        "1": m.a1 - m.e1 + 1j * (c(m.e_inv, m.a1) + c(m.e_0, m.a0)),
        "eps": 1j * (c(m.e_0, m.a1) + c(m.e_eps, m.a0)),
        "eps^2": 1j * c(m.e_eps, m.a1),
        "t/eps": 1j * c(m.e_inv, m.b),
        "t": 1j * (c(m.e_0, m.b) + c(m.e1, m.a0)),
        "t eps": 1j * (c(m.e_eps, m.b) + c(m.e1, m.a1)),
        "t^2": 1j * c(m.e1, m.b),
    }


def monomial(name, t, e):
    return {"1/eps": 1.0 / e, "1": 1.0, "eps": e, "eps^2": e * e,
            "t/eps": t / e, "t": t, "t eps": t * e, "t^2": t * t}[name]


def certificate(m):
    """Largest entry of each residual coefficient, relative to the model scale."""
    mats = (m.a0, m.a1, m.b, m.e_inv, m.e_0, m.e_eps, m.e1)
    scale = m.k * max(1.0, max(float(np.abs(x).max()) for x in mats)) ** 2
    return {name: float(np.abs(r).max()) / scale for name, r in laurent_terms(m).items()}


couplings = st.floats(-2.0, 2.0)
rates = st.floats(0.05, 5.0)


@st.composite
def bowtien_params(draw):
    # random n, strictly increasing magnitudes, any sign pattern
    n = draw(st.integers(1, 5))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    return dict(
        delta=draw(st.lists(couplings, min_size=n, max_size=n)),
        slope=[float(s * g) for s, g in zip(signs, np.cumsum(steps))],
    )


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(("bowtie3", "su3six", "su3adj8")),
                  st.fixed_dictionaries({"delta": couplings, "slope": rates})),
        st.tuples(st.just("bowtieN"), bowtien_params()),
    )
)
def test_exact_certificate_vanishes(case):
    family, params = case
    terms = certificate(build_model(family, eps=1.0, **params))
    assert max(terms.values()) <= 1e-12, terms


def test_certificate_sums_to_the_pointwise_residual():
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0, partner_b=0.8)
    terms = laurent_terms(m)
    for t, e in ((-3.0, 0.7), (2.5, -1.9), (0.0, 4.0)):
        total = sum(monomial(name, t, e) * r for name, r in terms.items())
        assert np.abs(total - curvature_residual(m, t, e)).max() < 1e-12


def test_certificate_detects_mismatched_symbol():
    terms = certificate(build_model("su3six", delta=0.2, slope=0.4, eps=1.0, partner_b=0.8))
    failing = {name for name, size in terms.items() if size > 1e-6}
    assert {"1", "eps", "t"} <= failing, terms

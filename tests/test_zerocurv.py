import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzscatter.models import AffineModel, MissingPartnerError, SingularPartnerError, build_model, lift
from lzscatter.zerocurv import (
    PASS_THRESHOLD,
    curvature_residual,
    curvature_terms,
    verify_pair,
)


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


def test_missing_and_singular_partner():
    lz = build_model("lz2", delta=1.0, slope=1.0)
    with pytest.raises(MissingPartnerError, match="no partner"):
        curvature_residual(lz, 0.0, 1.0)
    with pytest.raises(MissingPartnerError, match="no partner"):
        verify_pair(lz)
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


def _lift_model(model, rep):
    coefficients = ("a0", "a1", "b", "e_inv", "e_0", "e_eps", "e1")
    lifted = {name: lift(getattr(model, name), rep) for name in coefficients}
    return dataclasses.replace(model, family=f"{rep}({model.family})", k=len(lifted["a0"]), rep=rep,
                               **lifted)


@pytest.mark.parametrize("base, rep, k", [
    (dict(family="bowtie3", delta=0.3, slope=1.1, eps=0.8), ("sym", 3), 10),
    (dict(family="bowtie3", delta=0.45, slope=0.7, eps=-1.3), ("sym", 4), 15),
    (dict(family="bowtieN", delta=[0.25, 0.2], slope=[0.6, 1.2], eps=0.9), ("sym", 2), 10),
    (dict(family="bowtieN", delta=[0.25, 0.2], slope=[0.6, -1.2], eps=-0.7), ("sym", 2), 10),
])
def test_lifts_outside_the_catalog_are_solvable(base, rep, k):
    # a homomorphism keeps every term of the residual, so lifting a
    # commuting pair gives a new one: the library builds solvable models
    # that the catalog does not name
    model = _lift_model(build_model(**base), rep)
    assert model.k == k
    report = verify_pair(model)
    assert report.passed
    assert report.max_residual <= 1e-13


def test_verify_pair_detects_broken_partner():
    m = bowtie3()
    zero = np.zeros((3, 3), dtype=complex)
    broken = dataclasses.replace(m, e_inv=zero, e_0=zero, e_eps=zero)
    report = verify_pair(broken)
    assert not report.passed
    # only the t term survives: i [e1, a0] has the coupling 0.3 as entries
    assert report.max_residual == pytest.approx(0.3)
    assert report.worst_term == "t"


def mismatched_su3six():
    # the partner coupling e_0[1, 4] = -d / a written with an independent
    # symbol 0.8 in place of the sweep rate a = 0.4
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0)
    e_0 = m.e_0.copy()
    e_0[1, 4] = e_0[4, 1] = -0.2 / 0.8
    return dataclasses.replace(m, e_0=e_0)


def test_verify_pair_detects_mismatched_symbol():
    # zero curvature pins the symbol to the sweep rate; e_0[1, 4] is off by
    # d/a - d/0.8 = 0.25, which i [e_0, a1] carries into the eps term with
    # the flat-slope gap 1
    report = verify_pair(mismatched_su3six())
    assert not report.passed
    assert report.max_residual == pytest.approx(0.25)
    assert report.worst_term == "eps"


def test_verify_pair_detects_wrong_equal_slope_weight():
    # doubled 1/eps weight on the equal-slope pair slot: also detectable
    m = build_model("su3six", delta=0.2, slope=0.4, eps=1.0)
    skewed = m.e_inv.copy()
    skewed[3, 4] *= np.sqrt(2.0)
    skewed[4, 3] *= np.sqrt(2.0)
    report = verify_pair(dataclasses.replace(m, e_inv=skewed))
    assert not report.passed
    # off by w (sqrt2 - 1), w = d^2 / a = 0.1, times the flat gap 2 of a1
    assert report.max_residual == pytest.approx(0.2 * (np.sqrt(2.0) - 1.0))
    assert report.worst_term == "1"


def test_report_json_shape():
    report = verify_pair(bowtie3())
    blob = report.to_json_dict()
    assert set(blob) == {"family", "max_residual", "worst_term", "pass"}
    assert blob["worst_term"] in curvature_terms(bowtie3())
    assert blob["pass"] is True


# Exact certificate: zero curvature holds for all (t, eps) iff the eight
# Laurent coefficients of the residual (curvature_terms) vanish.


def monomial(name, t, e):
    return {"1/eps": 1.0 / e, "1": 1.0, "eps": e, "eps^2": e * e,
            "t/eps": t / e, "t": t, "t eps": t * e, "t^2": t * t}[name]


def certificate(m):
    """Largest entry of each residual coefficient, relative to the model scale."""
    mats = (m.a0, m.a1, m.b, m.e_inv, m.e_0, m.e_eps, m.e1)
    scale = m.k * max(1.0, max(float(np.abs(x).max()) for x in mats)) ** 2
    return {name: float(np.abs(r).max()) / scale for name, r in curvature_terms(m).items()}


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
    model = build_model(family, eps=1.0, **params)
    terms = certificate(model)
    assert max(terms.values()) <= 1e-12, terms
    assert verify_pair(model).passed


def random_hermitian(rng, k):
    x = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return x + x.conj().T


def test_certificate_sums_to_the_pointwise_residual():
    # seven random Hermitian coefficients make all eight terms nonzero, so
    # every term of curvature_terms is checked against the pointwise residual
    rng = np.random.default_rng(7)
    a0, a1, b, e_inv, e_0, e_eps, e1 = (random_hermitian(rng, 4) for _ in range(7))
    m = AffineModel(family="random", k=4, delta=0.0, slope=0.0, eps=1.0,
                    a0=a0, a1=a1, b=b, e_inv=e_inv, e_0=e_0, e_eps=e_eps, e1=e1)
    terms = curvature_terms(m)
    assert min(float(np.abs(r).max()) for r in terms.values()) > 0.1
    for t, e in rng.uniform(-4.0, 4.0, size=(6, 2)):
        pointwise = curvature_residual(m, t, e)
        total = sum(monomial(name, t, e) * r for name, r in terms.items())
        assert np.abs(total - pointwise).max() <= 1e-12 * np.abs(pointwise).max()


def test_certificate_detects_mismatched_symbol():
    terms = certificate(mismatched_su3six())
    failing = {name for name, size in terms.items() if size > 1e-6}
    assert {"1", "eps", "t"} <= failing, terms

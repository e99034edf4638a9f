"""Brundobler-Elser survival on the algebraic and crossings routes.

The numeric route is checked where a test already propagates
(``test_oracle.test_numeric_smatrix_rows_sum_within_defect``).
"""

import pytest

from brundobler_elser import extremal_survivals
from lzscatter.cli import compute_smatrix
from lzscatter.models import build_model


def assert_survivals(model, s, tol=1e-12):
    expect = extremal_survivals(model)
    assert expect, "no non-degenerate extremal-slope level"
    for i, p in expect.items():
        assert abs(s[i, i] - p) <= tol, (i, s[i, i], p)


@pytest.mark.parametrize("delta, slope", [(0.2, 0.5), (0.8, 1.0), (1.3, 2.0)])
def test_algebraic_route_spin(delta, slope):
    for k in range(2, 65):
        model = build_model("spin", k=k, delta=delta, slope=slope)
        assert_survivals(model, compute_smatrix(model, "algebraic", None)[0])


@pytest.mark.parametrize("family", ["lz2", "adjoint3"])
def test_algebraic_route_lz2_adjoint3(family):
    model = build_model(family, delta=0.7, slope=1.3)
    assert_survivals(model, compute_smatrix(model, "algebraic", None)[0])


# su3adj8 is left out: both of its extremal slopes (+-b) are doubly
# degenerate, so the formula predicts no entry there
@pytest.mark.parametrize("eps", [1.0, -0.7])
@pytest.mark.parametrize(
    "family, delta, slope",
    [
        ("bowtie3", 0.3, 1.1),
        ("bowtieN", [0.25, 0.2], [0.6, -1.2]),
        ("bowtieN", [0.3, 0.15], [-0.8, 1.5]),
        ("su3six", 0.2, 0.4),
    ],
)
def test_crossings_route(family, delta, slope, eps):
    model = build_model(family, delta=delta, slope=slope, eps=eps)
    assert_survivals(model, compute_smatrix(model, "crossings", None)[0])

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lzscatter import cli, crossings
from lzscatter.cli import main
from lzscatter.laxflow import first_row_element, lz_closed_form, smatrix_spin
from lzscatter.models import model_from_descriptor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def matrix_from_pairs(blob):
    return np.array([[complex(re, im) for re, im in row] for row in blob])


def test_model_show_round_trip(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    code, out, _ = run(
        capsys, "model", "show", "--family", "bowtie3",
        "--delta", "0.3", "--slope", "1.1", "--eps", "0.8",
        "--ledger", str(ledger),
    )
    assert code == 0
    payload = json.loads(out)
    rebuilt = model_from_descriptor(payload["descriptor"])
    assert np.array_equal(matrix_from_pairs(payload["a"]), rebuilt.a_of(0.8))
    assert np.array_equal(matrix_from_pairs(payload["b"]), rebuilt.b)
    assert np.array_equal(matrix_from_pairs(payload["e1"]), rebuilt.e1)
    assert np.array_equal(matrix_from_pairs(payload["e0"]), rebuilt.partner_constant())


def test_model_show_lz2_values(tmp_path, capsys):
    code, out, _ = run(
        capsys, "model", "show", "--family", "lz2", "--delta", "1", "--slope", "1",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    payload = json.loads(out)
    assert matrix_from_pairs(payload["b"]).real.tolist() == [[1.0, 0.0], [0.0, -1.0]]
    assert matrix_from_pairs(payload["a"]).real.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_unknown_family_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "model", "show", "--family", "nope", "--delta", "1", "--slope", "1",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 2
    assert "valid families" in err


def test_smatrix_algebraic_values(tmp_path, capsys):
    code, out, _ = run(
        capsys, "smatrix", "--family", "spin", "--k", "3",
        "--delta", "1", "--slope", "1", "--method", "algebraic",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    payload = json.loads(out)
    expect = smatrix_spin(3, 1.0, 1.0)
    assert np.abs(np.array(payload["matrix"]) - expect).max() < 1e-14
    u = math.exp(-math.pi)
    assert payload["matrix"][0][0] == pytest.approx(u * u, rel=1e-12)


def small_d_squared(k, u):
    # |d^j_{m'm}(beta)|^2 by Wigner's sum formula, j = (k - 1)/2,
    # cos(beta/2)^2 = u; row p is m' = j - p, column q is m = j - q
    c, s = math.sqrt(u), math.sqrt(1.0 - u)
    f = [math.factorial(n) for n in range(k)]
    out = np.empty((k, k))
    for p in range(k):
        for q in range(k):
            total = 0.0
            for r in range(max(0, p - q), min(p, k - 1 - q) + 1):
                total += ((-1) ** (q - p + r)
                          / (f[k - 1 - q - r] * f[r] * f[q - p + r] * f[p - r])
                          * c ** (k - 1 + p - q - 2 * r) * s ** (q - p + 2 * r))
            out[p, q] = f[k - 1 - p] * f[p] * f[k - 1 - q] * f[q] * total * total
    return out


@pytest.mark.parametrize("k", range(2, 13))
def test_smatrix_algebraic_spin_every_entry(tmp_path, capsys, k):
    code, out, _ = run(
        capsys, "smatrix", "--family", "spin", "--k", str(k),
        "--delta", "0.6", "--slope", "1", "--method", "algebraic",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    s = np.array(json.loads(out)["matrix"])
    expect = small_d_squared(k, math.exp(-math.pi * 0.36))
    assert np.abs(s - expect).max() <= 1e-13


@pytest.mark.parametrize("k", [32, 64])
def test_smatrix_algebraic_high_spin(tmp_path, capsys, k):
    code, out, _ = run(
        capsys, "smatrix", "--family", "spin", "--k", str(k),
        "--delta", "0.8", "--slope", "1", "--method", "algebraic",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    s = np.array(json.loads(out)["matrix"])
    row = [first_row_element(k, 0.8, 1.0, j) for j in range(1, k + 1)]
    assert np.abs(s[0] - row).max() < 1e-14


@pytest.mark.parametrize("k", [32, 64])
def test_smatrix_numeric_high_spin(tmp_path, capsys, k):
    # the numeric route propagates 2 x 2 and lifts at O(k^3); its finite
    # horizon T = 300 leaves an error of order 1e-3
    code, out, _ = run(
        capsys, "smatrix", "--family", "spin", "--k", str(k),
        "--delta", "0.8", "--slope", "1", "--method", "numeric", "--T", "300",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    s = np.array(json.loads(out)["matrix"])
    row = [first_row_element(k, 0.8, 1.0, j) for j in range(1, k + 1)]
    assert np.abs(s[0] - row).max() < 5e-3


def test_smatrix_algebraic_lz2_closed_form(tmp_path, capsys):
    code, out, _ = run(
        capsys, "smatrix", "--family", "lz2", "--delta", "0.7", "--slope", "1.3",
        "--method", "algebraic", "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    s = np.array(json.loads(out)["matrix"])
    assert np.abs(s - lz_closed_form(0.7, 1.3)).max() <= 1e-15


def test_smatrix_crossings_bowtie(tmp_path, capsys):
    code, out, _ = run(
        capsys, "smatrix", "--family", "bowtie3",
        "--delta", "0.3", "--slope", "1", "--eps", "1",
        "--method", "crossings", "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    payload = json.loads(out)
    p = math.exp(-2 * math.pi * 0.09)
    assert payload["matrix"][0][0] == pytest.approx(p, rel=1e-12)
    assert payload["matrix"][1][0] == pytest.approx(0.0, abs=1e-15)
    assert payload["events"] == 2


@pytest.mark.parametrize("params", [
    ["--delta", "nan", "--slope", "1", "--eps", "1", "--method", "crossings"],
    ["--delta", "0.3", "--slope", "1", "--eps", "nan", "--method", "crossings"],
    ["--delta", "inf", "--slope", "1", "--eps", "1", "--method", "crossings"],
    ["--delta", "0.3", "--slope", "inf", "--eps", "1", "--method", "crossings"],
    ["--delta", "0.3", "--slope", "1", "--eps", "1", "--method", "numeric", "--T", "inf"],
], ids=["delta-nan", "eps-nan", "delta-inf", "slope-inf", "T-inf"])
def test_non_finite_input_exit_2_writes_no_record(tmp_path, capsys, params):
    ledger = tmp_path / "l.jsonl"
    code, out, err = run(capsys, "smatrix", "--family", "bowtie3", *params,
                         "--ledger", str(ledger))
    assert code == 2
    assert "finite" in err
    assert out == ""
    assert not ledger.exists()


@pytest.mark.parametrize("argv", [
    ["smatrix", "--family", "bowtie3", "--delta", "0.3", "--slope", "1", "--eps", "1"],
    ["sweep", "--family", "bowtie3", "--delta", "0.3", "--slope", "0.5:1:0.25", "--eps", "1"],
], ids=["smatrix", "sweep"])
def test_nan_matrix_fails_stochastic_check(tmp_path, capsys, monkeypatch, argv):
    # NaN compares False with everything, so a `defect > tol` test passed it;
    # sweep printed rows of nan and recorded a pass
    monkeypatch.setattr(cli, "compute_smatrix",
                        lambda model, method, args: (np.full((3, 3), np.nan), {}))
    out_file = tmp_path / "out"
    ledger = tmp_path / "l.jsonl"
    code, _, err = run(capsys, *argv, "--out", str(out_file), "--ledger", str(ledger))
    assert code == 1
    assert err.startswith("FAIL: scattering matrix violates double stochasticity")
    assert not out_file.exists()
    assert not ledger.exists()


EXACT_ROUTES = {
    "lz2": (["--delta=0.5", "--slope=1"], "algebraic"),
    "spin": (["--k=4", "--delta=0.5", "--slope=1"], "algebraic"),
    "adjoint3": (["--delta=0.5", "--slope=1"], "algebraic"),
    "bowtie3": (["--delta=0.3", "--slope=1", "--eps=1"], "crossings"),
    "bowtieN": (["--delta=0.2,0.3", "--slope=1,-2", "--eps=1"], "crossings"),
    "su3six": (["--delta=0.2", "--slope=0.4", "--eps=1"], "crossings"),
    "su3adj8": (["--delta=0.2", "--slope=0.4", "--eps=1"], "crossings"),
}


@pytest.mark.parametrize("family", EXACT_ROUTES)
def test_default_route_is_the_only_exact_route(tmp_path, capsys, family):
    # a family with a flow partner takes the crossings route, the others the
    # algebraic one; the default is that route and prints what naming it prints
    params, route = EXACT_ROUTES[family]
    ledger = tmp_path / "l.jsonl"
    argv = ["smatrix", f"--family={family}", *params, "--ledger", str(ledger)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["method"] == route
    assert run(capsys, *argv, f"--method={route}")[:2] == (0, out)
    other = {"algebraic": "crossings", "crossings": "algebraic"}[route]
    code, out, err = run(capsys, *argv, f"--method={other}")
    assert (code, out) == (2, "")
    assert f"method {other} unsupported for family {family!r}" in err
    assert len(ledger.read_text().splitlines()) == 2
    if route == "crossings":
        # eps = 0 is the partner's pole: no exact route, no numeric fallback
        code, out, err = run(capsys, *[p.replace("--eps=1", "--eps=0") for p in argv])
        assert (code, out) == (2, "")
        assert "eps = 0" in err
        assert len(ledger.read_text().splitlines()) == 2


def test_compare_pass_and_corrupt(tmp_path, capsys, monkeypatch):
    base = [
        "compare", "--family", "spin", "--k", "2", "--delta", "0.8", "--slope", "1",
        "--methods", "algebraic", "numeric", "--T", "120", "--rtol", "1e-7",
        "--ledger", str(tmp_path / "l.jsonl"),
    ]
    code, out, _ = run(capsys, *base)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["pairs"][0]["max_deviation"] < payload["tolerance"]

    compute = cli.compute_smatrix

    def corrupt_first(model, method, args):
        # a faulty first route: its matrix is off by 0.05 in one entry
        matrix, meta = compute(model, method, args)
        if method == "algebraic":
            matrix = matrix.copy()
            matrix[0, 0] += 0.05
        return matrix, meta

    monkeypatch.setattr(cli, "compute_smatrix", corrupt_first)
    code_bad, out_bad, err = run(capsys, *base)
    assert code_bad == 1
    assert json.loads(out_bad)["pass"] is False
    assert "FAIL" in err


def test_spectrum_csv(tmp_path, capsys):
    out_file = tmp_path / "spec.csv"
    code, _, _ = run(
        capsys, "spectrum", "--family", "lz2", "--delta", "0.5", "--slope", "1",
        "--t-min", "-4", "--t-max", "4", "--steps", "5", "--out", str(out_file),
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "t,e1,e2"
    assert len(lines) == 6
    row = [float(x) for x in lines[1].split(",")]
    gap = math.sqrt(16 + 0.25)
    assert row == pytest.approx([-4.0, -gap, gap])


def test_spectrum_minimum_steps(tmp_path, capsys):
    code, _, err = run(
        capsys, "spectrum", "--family", "lz2", "--delta", "0.5", "--slope", "1",
        "--steps", "1", "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 2
    assert "steps" in err


@pytest.mark.parametrize("window", [["--t-min=nan"], ["--t-max=inf"], ["--t-min=-inf"]],
                         ids=["t-min-nan", "t-max-inf", "t-min-neg-inf"])
def test_spectrum_non_finite_window_exit_2(tmp_path, capsys, monkeypatch, window):
    def unreachable(*args, **kwargs):
        raise AssertionError("spectrum computed on a non-finite window")

    monkeypatch.setattr(cli.oracle, "adiabatic_spectrum", unreachable)
    ledger = tmp_path / "l.jsonl"
    code, out, err = run(capsys, "spectrum", "--family", "lz2", "--delta", "0.5",
                         "--slope", "1", *window, "--ledger", str(ledger))
    assert code == 2
    assert err == f"error: t window must be finite, got {window[0]}\n"
    assert out == ""
    assert not ledger.exists()


def test_zero_curvature_cli(tmp_path, capsys):
    code, out, _ = run(
        capsys, "zero-curvature", "--family", "bowtie3",
        "--delta", "0.3", "--slope", "1", "--eps", "1",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    assert json.loads(out)["pass"] is True

    code2, _, err = run(
        capsys, "zero-curvature", "--family", "lz2", "--delta", "1", "--slope", "1",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code2 == 2
    assert "partner" in err


def test_sweep_entry_column(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--family", "spin", "--k", "3",
        "--delta", "0.2:0.8:0.2", "--slope", "1",
        "--method", "algebraic", "--entries", "1,1",
        "--out", str(out_file), "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "delta,S_1_1"
    assert len(lines) == 4
    for line in lines[1:]:
        d, s11 = (float(x) for x in line.split(","))
        u = math.exp(-math.pi * d * d)
        assert s11 == pytest.approx(u * u, rel=1e-12)


@pytest.mark.parametrize("entries", ["0,0", "3,3", "1,1;1,3"])
def test_sweep_entry_out_of_range_exit_2_writes_no_record(tmp_path, capsys, entries):
    # 0 used to wrap to the last level (exit 0, a column S_0_0) and 3 on a
    # two-level model raised IndexError (exit 3)
    out_file = tmp_path / "sweep.csv"
    ledger = tmp_path / "l.jsonl"
    code, out, err = run(
        capsys, "sweep", "--family", "lz2", "--delta", "0.1:0.3:0.1", "--slope", "1",
        "--method", "algebraic", "--entries", entries,
        "--out", str(out_file), "--ledger", str(ledger),
    )
    assert code == 2
    assert "outside 1..2" in err
    assert out == ""
    assert not out_file.exists()
    assert not ledger.exists()


def test_sweep_empty_range(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    ledger = tmp_path / "l.jsonl"
    for params in (
        ["--family", "lz2", "--delta", "1:1:0.5", "--slope", "1", "--method", "algebraic"],
        ["--family", "bowtie3", "--delta", "1:0:0.1", "--slope", "1", "--eps", "1"],
    ):
        code, _, err = run(capsys, "sweep", *params,
                           "--out", str(out_file), "--ledger", str(ledger))
        assert code == 2
        assert "holds no points" in err
        assert not out_file.exists()
        assert not ledger.exists()


@pytest.mark.parametrize("argv, match", [
    (["smatrix", "--family", "bowtie3", "--k", "7", "--delta", "0.3", "--slope", "1",
      "--eps", "1"], "spin family only"),
    (["smatrix", "--family", "spin", "--k", "3", "--delta", "0.3", "--slope", "1",
      "--eps", "5"], "takes no eps"),
    (["sweep", "--family", "spin", "--k", "3", "--delta", "0.3", "--slope", "1",
      "--eps", "0.5:2:0.5"], "takes no eps"),
    (["model", "show", "--family", "lz2", "--delta", "0.3", "--slope", "1",
      "--eps", "1"], "takes no eps"),
], ids=["k-bowtie3", "eps-spin", "eps-sweep-spin", "eps-lz2"])
def test_ignored_model_argument_exit_2_writes_no_record(tmp_path, capsys, argv, match):
    ledger = tmp_path / "l.jsonl"
    code, out, err = run(capsys, *argv, "--ledger", str(ledger))
    assert code == 2
    assert match in err
    assert out == ""
    assert not ledger.exists()



def test_crossings_eps_beyond_the_detour_exit_2_without_warning(tmp_path, capsys):
    ledger = tmp_path / "l.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "smatrix", "--family", "su3adj8", "--delta", "0.2",
                             "--slope", "0.4", "--eps", "1e305", "--method", "crossings",
                             "--ledger", str(ledger))
    assert code == 2
    assert "eps = 1e+305 is too far from the origin for the detour" in err
    assert "holds |eps| <= 4.32137772803" in err
    assert out == ""
    assert not caught
    assert not ledger.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model_args, match", [
    # the default horizon 300 delta^2 / slope overflows
    (("--family", "lz2", "--delta", "1e160", "--slope", "1"), "delta 1e+160 and slope 1.0 give no finite default horizon"),
    # a finite default horizon, 2.7e301, whose step generators overflow
    (("--family", "bowtie3", "--delta", "0.3", "--slope", "1e-300", "--eps", "1"), "cannot meet --T 2.7e+301"),
    (("--family", "lz2", "--delta", "0", "--slope", "1", "--T", "1e60"), "cannot meet --T 1e+60"),
])
def test_numeric_horizon_beyond_float_range_exit_2(tmp_path, capsys, model_args, match):
    # refused by name before any step: with RuntimeWarning an error, a
    # warning on the way would make this exit 3
    ledger = tmp_path / "l.jsonl"
    code, out, err = run(capsys, "smatrix", *model_args, "--method", "numeric", "--ledger", str(ledger))
    assert code == 2
    assert match in err and "--T" in err
    assert out == ""
    assert not ledger.exists()


@pytest.mark.parametrize("route_args, match", [
    (("--T", "1e12"), "cannot meet --T 1e+12 at --rtol 1e-08"),
    (("--rtol", "1e-20"), "cannot meet --T 300 at --rtol 1e-20"),
])
def test_numeric_route_beyond_its_step_floor_exit_2(tmp_path, capsys, route_args, match):
    # a horizon or tolerance the step control cannot serve is bad input, not
    # an internal error (it was exit 3, IntegrationDivergedError)
    ledger = tmp_path / "l.jsonl"
    code, out, err = run(capsys, "smatrix", "--family", "spin", "--k", "3", "--delta", "0.5",
                         "--slope", "1", "--method", "numeric", *route_args, "--ledger", str(ledger))
    assert code == 2
    assert match in err
    assert "use a shorter --T or a looser --rtol" in err
    assert out == ""
    assert not ledger.exists()


@pytest.mark.parametrize("delta, match", [
    ("1e200", "delta 1e+200 and slope 0.4 overflow the coefficients of 'su3six'"),
    ("1e120", "overflow the Magnus basis or its step cap: max|A| = 1.000e+120"),
])
def test_numeric_overflow_exit_2_without_warning(tmp_path, capsys, delta, match):
    ledger = tmp_path / "l.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "smatrix", "--family", "su3six", "--delta", delta,
                             "--slope", "0.4", "--eps", "1", "--method", "numeric", "--T", "50",
                             "--ledger", str(ledger))
    assert code == 2
    assert match in err
    assert out == ""
    assert not caught
    assert not ledger.exists()


@pytest.mark.parametrize("span", ["0.5:inf:0.5", "nan:1:0.5", "0.5:1.5:nan"])
def test_sweep_non_finite_range_exit_2(tmp_path, capsys, span):
    ledger = tmp_path / "l.jsonl"
    code, _, err = run(capsys, "sweep", "--family", "bowtie3", "--delta", "0.3",
                       "--slope", "1", "--eps", span, "--method", "crossings",
                       "--ledger", str(ledger))
    assert code == 2
    assert "range must be finite" in err
    assert not ledger.exists()


def test_sweep_requires_exactly_one_range(tmp_path, capsys):
    code, _, err = run(
        capsys, "sweep", "--family", "lz2",
        "--delta", "0.1:1:0.1", "--slope", "0.5:2:0.5",
        "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 2
    assert "exactly one" in err


def test_ledger_appends_one_record_per_success(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    commands = [
        ["model", "show", "--family", "lz2", "--delta", "1", "--slope", "1"],
        ["smatrix", "--family", "lz2", "--delta", "1", "--slope", "1",
         "--method", "algebraic"],
        ["zero-curvature", "--family", "bowtie3", "--delta", "0.2",
         "--slope", "1", "--eps", "1"],
    ]
    for argv in commands:
        assert run(capsys, *argv, "--ledger", str(ledger))[0] == 0
    # a failing invocation must not append
    run(capsys, "smatrix", "--family", "zzz", "--delta", "1", "--slope", "1",
        "--ledger", str(ledger))
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert len(records) == len(commands)
    for record in records:
        assert set(record) == {"timestamp", "argv", "descriptor", "method", "digest", "pass"}


def test_ledger_env_override(tmp_path, capsys, monkeypatch):
    target = tmp_path / "env_ledger.jsonl"
    monkeypatch.setenv("LZSCATTER_LEDGER", str(target))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "smatrix", "--family", "lz2", "--delta", "0.5",
                     "--slope", "1", "--method", "algebraic")
    assert code == 0
    assert len(target.read_text().splitlines()) == 1


def test_bowtien_descriptor_lists(tmp_path, capsys):
    code, out, _ = run(
        capsys, "smatrix", "--family", "bowtieN",
        "--delta", "0.2,0.3", "--slope", "1.0,-2.0", "--eps", "1",
        "--method", "crossings", "--ledger", str(tmp_path / "l.jsonl"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["delta"] == [0.2, 0.3]
    assert payload["params"]["slope"] == [1.0, -2.0]
    rebuilt = model_from_descriptor(payload["params"])
    assert rebuilt.k == 4


INTERFERING_BOWTIEN = ["--family", "bowtieN", "--delta", "0.25,0.25", "--slope", "0.6,1.2"]


@pytest.mark.parametrize("eps, entries", [("1", "(1,2), (1,3), (3,2), (3,3)"),
                                          ("-1", "(2,1), (2,3), (3,1), (3,3)")])
def test_bowtien_interfering_paths_exit_1(tmp_path, capsys, eps, entries):
    # same-sign slopes join four (end, start) pairs by two event paths each
    ledger = tmp_path / "l.jsonl"
    code, _, err = run(capsys, "smatrix", *INTERFERING_BOWTIEN, "--eps", eps,
                       "--ledger", str(ledger))
    assert code == 1
    assert err.startswith(f"FAIL: crossings route: entries {entries} ")
    assert "--method numeric" in err
    assert not ledger.exists()


def test_bowtien_interfering_paths_sweep_and_compare_exit_1(tmp_path, capsys):
    ledger = tmp_path / "l.jsonl"
    for extra in (["sweep", "--eps", "0.5:1.5:0.5"],
                  ["compare", "--eps", "1", "--methods", "crossings", "numeric"]):
        code, _, err = run(capsys, extra[0], *INTERFERING_BOWTIEN, *extra[1:],
                           "--ledger", str(ledger))
        assert code == 1
        assert err.startswith("FAIL: crossings route: entries (1,2), (1,3)")
    assert not ledger.exists()


def test_internal_error_exit_3_writes_no_record(tmp_path, capsys, monkeypatch):
    def broken(model, method, args):
        raise KeyError("missing table entry")

    monkeypatch.setattr(cli, "compute_smatrix", broken)
    ledger = tmp_path / "l.jsonl"
    code, _, err = run(
        capsys, "smatrix", "--family", "lz2", "--delta", "1", "--slope", "1",
        "--ledger", str(ledger),
    )
    assert code == 3
    assert err.startswith("internal error: KeyError: ")
    assert "missing table entry" in err
    assert not ledger.exists()


def test_negative_probability_exit_1_writes_no_record(tmp_path, capsys, monkeypatch):
    # a computed matrix below the clamp floor breaks an invariant: exit 1,
    # not the exit 2 of bad input
    bad = np.array([[1.5, -0.5, 0.0], [-0.5, 1.5, 0.0], [0.0, 0.0, 1.0]])
    monkeypatch.setattr(cli, "_crossings_schedule", lambda model: [None])
    monkeypatch.setattr(crossings, "local_smatrix", lambda event, k: bad)
    ledger = tmp_path / "l.jsonl"
    code, _, err = run(
        capsys, "smatrix", "--family", "bowtie3", "--delta", "0.3", "--slope", "1",
        "--eps", "1", "--method", "crossings", "--ledger", str(ledger),
    )
    assert code == 1
    assert err.startswith("FAIL: probability entry -5.000e-01 below clamp floor")
    assert not ledger.exists()


# Commands a fresh interpreter runs through ``cli.main``; none may load
# scipy, and every command must print what the in-process run prints.
COLD_COMMANDS = [
    ["smatrix", "--family=spin", "--k=3", "--delta=0.8", "--slope=1", "--method=algebraic"],
    ["smatrix", "--family=bowtie3", "--delta=0.3", "--slope=1", "--eps=-1",
     "--method=crossings"],
    ["smatrix", "--family=su3adj8", "--delta=0.2", "--slope=0.4", "--eps=1",
     "--method=crossings"],
    ["smatrix", "--family=bowtie3", "--delta=0.3", "--slope=1", "--eps=1",
     "--method=numeric", "--T=30"],
    ["compare", "--family=bowtie3", "--delta=0.3", "--slope=1", "--eps=1",
     "--methods", "crossings", "numeric", "--T=30"],
    ["sweep", "--family=bowtie3", "--delta=0.3", "--slope=0.5:1:0.25", "--eps=1",
     "--method=crossings"],
    ["zero-curvature", "--family=su3six", "--delta=0.2", "--slope=0.4", "--eps=1"],
    ["model", "show", "--family=su3adj8", "--delta=0.2", "--slope=0.4", "--eps=-1"],
    ["spectrum", "--family=bowtie3", "--delta=0.3", "--slope=1", "--eps=1", "--steps=9"],
]
COLD_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[3] == "block":
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
def scipy_modules():
    return sorted(m for m, mod in sys.modules.items()
                  if mod is not None and (m == "scipy" or m.startswith("scipy.")))
import lzscatter, lzscatter.cli
report = {"import": scipy_modules(), "runs": []}
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lzscatter.cli.main(argv + ["--ledger", sys.argv[1]])
    report["runs"].append([code, buf.getvalue()])
report["commands"] = scipy_modules()
print(json.dumps(report))
"""


def cold_run(tmp_path, capsys, mode):
    # one fresh interpreter: this process has scipy loaded already, so only a
    # subprocess can see whether the package's own import path pulls it in
    src = Path(__file__).resolve().parent.parent / "src"
    ledger = str(tmp_path / "cold.jsonl")
    proc = subprocess.run(
        [sys.executable, "-c", COLD_SCRIPT, ledger, json.dumps(COLD_COMMANDS), mode],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["commands"] == []
    expected = [list(run(capsys, *argv, "--ledger", str(tmp_path / "warm.jsonl"))[:2])
                for argv in COLD_COMMANDS]
    assert all(code == 0 for code, _ in expected)
    assert report["runs"] == expected


def test_cold_cli_leaves_scipy_unloaded(tmp_path, capsys):
    cold_run(tmp_path, capsys, "watch")
    # perfbench's span tracer wraps this attribute by name
    assert "brentq" in vars(crossings) and callable(crossings.brentq)


def test_cli_runs_with_scipy_import_blocked(tmp_path, capsys):
    # importing scipy raises in the subprocess, so a lazy scipy import
    # anywhere on a command's path fails that command
    cold_run(tmp_path, capsys, "block")

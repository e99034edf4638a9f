"""Timed operations of the three workloads and their reference checks.

Each op has ``run()``, the timed call into the package (or one cold CLI
process), and ``check(result)``, which compares the result with an
independent reference outside the timed region and returns
``(passed, deviation, reason)``.  ``deviation`` is the largest entrywise
difference from the references the op was checked against.  The library's
own ``converged`` flag and ``error_estimate`` are never the pass test on
their own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

from inputs import NUMERIC_ATOL, NUMERIC_RTOL, NUMERIC_T, NUMERIC_TEMPLATES, model_kwargs

import lzscatter
from lzscatter import crossings, laxflow, zerocurv

# compare rule of ``lzscatter compare``: max(COMPARE_FLOOR, 3 * error_estimate)
COMPARE_FLOOR = 1e-2
LAX_V3_TOL = 2e-2
LAX_DRIFT_TOL = 1e-8
# exact routes agree with their references to roundoff
EXACT_TOL = 1e-12
ROUNDOFF_TOL = 1e-10

CLI_ENTRY = "import sys; from lzscatter.cli import main; sys.exit(main())"


def build(model):
    return lzscatter.build_model(**model_kwargs(model))


def extremal_survivals(model):
    """Brundobler-Elser survival of every non-degenerate extremal-slope level.

    ``{i: exp(-2 pi sum_j |A_ij|^2 / |B_ii - B_jj|)}``, 0-based level index.
    """
    b = np.diag(model.b).real
    a = model.a_of(model.eps if model.eps is not None else 0.0)
    out = {}
    for i in {int(np.argmax(b)), int(np.argmin(b))}:
        if np.count_nonzero(b == b[i]) > 1:
            continue
        x = sum(abs(a[i, j]) ** 2 / abs(b[i] - b[j]) for j in range(model.k) if j != i)
        out[i] = math.exp(-2.0 * math.pi * x)
    return out


def survival_deviation(s, model):
    return max([abs(s[i, i] - p) for i, p in extremal_survivals(model).items()], default=0.0)


def bowtie3_closed_form(delta, a, eps):
    """Factorized bow-tie matrix, destination rows; eps < 0 is its transpose."""
    p = math.exp(-2 * math.pi * delta * delta / a)
    q = 1.0 - p
    m = np.array([[p, q * q, p * q], [0.0, p, q], [q, p * q, p * p]])
    return m if eps > 0 else m.T


def hand_coded(model):
    """The hand-coded schedule's matrix where one applies, else None."""
    if model.family == "bowtie3":
        return crossings.compose(
            crossings.schedule_bowtie3(model.delta, model.slope, model.eps), 3)
    if model.family == "bowtieN" and model.eps > 0:
        return crossings.compose(
            crossings.schedule_bowtieN(model.delta, model.slope, model.eps), model.k)
    if model.family == "su3six" and model.eps > 0:
        return crossings.compose(
            crossings.schedule_su3six(model.delta, model.slope, model.eps), 6)
    return None


def _result(devs, tols):
    """``(passed, deviation, reason)`` from named deviations and tolerances."""
    failed = [f"{name} {devs[name]:.3e} > {tols[name]:.1e}"
              for name in devs if not devs[name] <= tols[name]]
    return not failed, max(devs.values()), "; ".join(failed)


class SmatrixOp:
    """``numeric_smatrix`` at the CLI tolerance and the fixed horizon."""

    def __init__(self, item):
        self.model = build(item["model"])
        self.label = f"numeric_smatrix {self.model.family} eps={self.model.eps:+g}"
        self.settings = lzscatter.OdeSettings(rtol=NUMERIC_RTOL, atol=NUMERIC_ATOL)
        self._ref = None

    def run(self):
        return lzscatter.numeric_smatrix(self.model, t_final=NUMERIC_T, settings=self.settings)

    def check(self, result):
        if self._ref is None:
            self._ref = crossings.compose(
                crossings.derive_schedule_generic(self.model), self.model.k)
        tol = max(COMPARE_FLOOR, 3.0 * result.error_estimate)
        devs = {"crossings": float(np.abs(result.s_num - self._ref).max()),
                "survival": survival_deviation(result.s_num, self.model)}
        return _result(devs, {"crossings": tol, "survival": tol})


class LaxOp:
    """``evolve_lax`` of V(-T) = Z over [-T, T]: one propagation of -H."""

    def __init__(self, item):
        self.model = build(item["model"])
        self.label = f"evolve_lax spin k={self.model.k}"
        self.settings = lzscatter.OdeSettings(rtol=NUMERIC_RTOL, atol=NUMERIC_ATOL)

    def run(self):
        return lzscatter.evolve_lax(self.model, (0.0, 0.0, 1.0), -NUMERIC_T, NUMERIC_T,
                                    self.settings)

    def check(self, result):
        v_mat, bloch = result
        target = abs(laxflow.asymptotic_v3(self.model.delta, self.model.slope))
        ladder = laxflow.spin_ladder(self.model.k)
        devs = {"v3": abs(abs(bloch.v3) - target),
                "drift": float(np.abs(np.linalg.eigvalsh(v_mat) - ladder).max())}
        return _result(devs, {"v3": LAX_V3_TOL, "drift": LAX_DRIFT_TOL})


class CrossingsOp:
    """``verify_pair`` + ``derive_schedule_generic`` + ``compose``; no propagator."""

    def __init__(self, item):
        self.model = build(item["model"])
        self.label = f"crossings {self.model.family} k={self.model.k} eps={self.model.eps:+g}"
        self.hand = hand_coded(self.model)

    def run(self):
        report = lzscatter.verify_pair(self.model)
        schedule = lzscatter.derive_schedule_generic(self.model)
        return report, lzscatter.compose(schedule, self.model.k)

    def check(self, result):
        report, s = result
        devs = {"residual": report.max_residual,
                "survival": survival_deviation(s, self.model),
                "stochastic": laxflow.stochastic_defect(s)}
        tols = {"residual": zerocurv.PASS_THRESHOLD, "survival": ROUNDOFF_TOL,
                "stochastic": EXACT_TOL}
        if self.hand is not None:
            devs["hand-coded"] = float(np.abs(s - self.hand).max())
            tols["hand-coded"] = EXACT_TOL
        passed, dev, reason = _result(devs, tols)
        if not report.passed:
            passed, reason = False, reason or "verify_pair did not pass"
        return passed, dev, reason


class CliOp:
    """One cold ``lzscatter`` process; its JSON or CSV output is checked in-process."""

    def __init__(self, item, env, ledger, launcher):
        self.item = item
        self.kind = item["kind"]
        self.label = f"cli {self.kind}"
        self.env = env
        self.ledger = ledger
        self.launcher = launcher
        self.model = item["model"]

    def run(self):
        argv = [*self.launcher, *self.item["argv"], "--ledger", self.ledger]
        return run_process(argv, self.env)

    def check(self, result):
        code, out, err, _rss = result
        if code != 0:
            return False, math.inf, f"exit {code}: {err.strip()[-300:]}"
        try:
            devs = getattr(self, "_check_" + self.kind.replace("-", "_"))(out)
        except (ValueError, KeyError, IndexError) as exc:
            return False, math.inf, f"unreadable output: {exc}"
        return _result(devs, {name: ROUNDOFF_TOL for name in devs})

    @staticmethod
    def _matrix(out):
        return np.array(json.loads(out)["matrix"], dtype=float)

    def _spin_devs(self, s, k, delta, slope):
        row = [laxflow.first_row_element(k, delta, slope, j) for j in range(1, k + 1)]
        return {"smatrix_spin": float(np.abs(s - laxflow.smatrix_spin(k, delta, slope)).max()),
                "first_row": float(np.abs(s[0] - row).max())}

    def _bowtie3_devs(self, s, delta, slope, eps):
        fast = crossings.compose(crossings.schedule_bowtie3(delta, slope, eps), 3)
        model = lzscatter.build_model("bowtie3", delta=delta, slope=slope, eps=eps)
        return {"hand-coded": float(np.abs(s - fast).max()),
                "closed-form": float(np.abs(s - bowtie3_closed_form(delta, slope, eps)).max()),
                "survival": survival_deviation(s, model)}

    def _check_smatrix_spin(self, out):
        m = self.model
        return self._spin_devs(self._matrix(out), m["k"], m["delta"], m["slope"])

    def _check_smatrix_bowtie3(self, out):
        m = self.model
        return self._bowtie3_devs(self._matrix(out), m["delta"], m["slope"], m["eps"])

    def _check_smatrix_su3adj8(self, out):
        model = build(self.model)
        ref = crossings.compose(crossings.derive_schedule_generic(model), model.k)
        s = self._matrix(out)
        return {"derived": float(np.abs(s - ref).max()),
                "stochastic": laxflow.stochastic_defect(s)}

    def _sweep_rows(self, out, k):
        rows = list(csv.reader(io.StringIO(out)))[1:]
        values = self.model["sweep"]["values"]
        if len(rows) != len(values):
            raise ValueError(f"{len(rows)} sweep rows, expected {len(values)}")
        for row, value in zip(rows, values):
            if float(row[0]) != value:
                raise ValueError(f"sweep point {row[0]} != {value!r}")
            yield value, np.array([float(x) for x in row[1:]]).reshape(k, k)

    def _worst(self, per_point):
        worst = {}
        for devs in per_point:
            for name, dev in devs.items():
                worst[name] = max(worst.get(name, 0.0), dev)
        return worst

    def _check_sweep_spin(self, out):
        m = self.model
        return self._worst(self._spin_devs(s, m["k"], value, m["slope"])
                           for value, s in self._sweep_rows(out, m["k"]))

    def _check_sweep_bowtie3(self, out):
        m = self.model
        return self._worst(self._bowtie3_devs(s, m["delta"], value, m["eps"])
                           for value, s in self._sweep_rows(out, 3))

    def _check_zero_curvature(self, out):
        payload = json.loads(out)
        if payload["pass"] is not True:
            raise ValueError("zero-curvature reported no pass")
        ref = zerocurv.verify_pair(build(self.model))
        return {"residual": float(payload["max_residual"]),
                "in-process": abs(float(payload["max_residual"]) - ref.max_residual)}

    def _check_model_show(self, out):
        payload = json.loads(out)
        model = build(self.model)

        def dev(blob, matrix):
            got = np.array([[complex(re, im) for re, im in row] for row in blob])
            return float(np.abs(got - matrix).max())

        return {"a": dev(payload["a"], model.a_of(model.eps)),
                "b": dev(payload["b"], model.b),
                "e0": dev(payload["e0"], model.partner_constant()),
                "e1": dev(payload["e1"], model.e1)}


def run_process(argv, env):
    """Run one process to completion; ``(exit code, stdout, stderr, peak RSS in bytes)``.

    stderr goes to a temporary file so that a full pipe cannot stall the child.
    """
    with open(os.devnull, "rb") as stdin, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=err,
                                env=env)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out.decode(), err.read().decode(errors="replace"), \
            usage.ru_maxrss * 1024


def time_process(argv, env):
    """Wall time of one process that must exit 0."""
    t0 = time.perf_counter()
    code, _out, err, _rss = run_process(argv, env)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{argv[1:3]} exited {code}: {err.strip()[-300:]}")
    return elapsed


def make_ops(workload, inputs, env=None, ledger=None, launcher=None):
    if workload == "numeric":
        return [SmatrixOp(item) if item["kind"] == "smatrix" else LaxOp(item) for item in inputs]
    if workload == "crossings":
        return [CrossingsOp(item) for item in inputs]
    return [CliOp(item, env, ledger, launcher) for item in inputs]


def warm_up(workload, ops, env):
    """Untimed first calls: fills .pyc files and first-call caches."""
    if workload == "numeric":
        short = lzscatter.OdeSettings(rtol=NUMERIC_RTOL, atol=NUMERIC_ATOL)
        for op in ops[:len(NUMERIC_TEMPLATES)]:
            if isinstance(op, SmatrixOp):
                lzscatter.numeric_smatrix(op.model, t_final=2.0, settings=short)
            else:
                lzscatter.evolve_lax(op.model, (0.0, 0.0, 1.0), -2.0, 2.0, short)
    elif workload == "crossings":
        op = ops[0]
        op.check(op.run())
    else:
        time_process([sys.executable, "-c", "import lzscatter.cli"], env)
        op = ops[0]
        op.check(op.run())

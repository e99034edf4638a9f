"""lzscatter benchmark: three workloads, reference-checked, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--workload`` is ``numeric``, ``crossings``, ``cli`` or ``all``.  With
``--trace 0`` a run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  Every op is checked
against an independent reference; a failed op makes ``correct`` false and
the exit code 1.  The last line of standard output is one JSON object.
``--workload all`` runs each workload in its own process and also writes
``.perfbench/results.json``.
"""

import os

# one process, one thread: pin the BLAS/OpenMP pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("numeric", "crossings", "cli")
SETUP_REPEATS = 5
PROBE_REPEATS = 5

END_TO_END = (
    ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("accuracy_digits", "digits"),
)

PER_LAYER = (
    ("models.build_s", "s/call"),
    ("models.hamiltonian_calls", "calls/op"), ("models.hamiltonian_s", "s/op"),
    ("models.partner_calls", "calls/op"), ("models.partner_s", "s/op"),
    ("numerics.propagate_calls", "calls/op"), ("numerics.propagate_s", "s/op"),
    ("numerics.propagate_self_s", "s/op"),
    ("numerics.eigh_calls", "calls/op"), ("numerics.eigh_matrices", "count/op"),
    ("numerics.eigh_s", "s/op"),
    ("oracle.solve_s", "s/call"), ("oracle.propagated_span_per_solve", "sweeps"),
    ("laxflow.evolve_lax_s", "s/call"), ("laxflow.smatrix_spin_s", "s/call"),
    ("crossings.derive_s", "s/call"), ("crossings.events", "count/derive"),
    ("crossings.diag_evals", "calls/derive"), ("crossings.brentq_calls", "calls/derive"),
    ("crossings.compose_s", "s/call"),
    ("zerocurv.verify_s", "s/call"),
    ("cli.interp_s", "s"), ("cli.import_s", "s"),
    ("cli.command_s.smatrix", "s/call"), ("cli.command_s.sweep", "s/call"),
    ("cli.command_s.zero-curvature", "s/call"), ("cli.command_s.model_show", "s/call"),
    ("cli.ledger_bytes_per_record", "B/record"),
    ("trace.overhead", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time of the timed ops in one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance():
    """Git sha, versions, cores and load average, taken at the start of a run."""
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "machine": platform.machine(),
    }


def git_sha():
    """HEAD's commit from the .git directory, or "unknown" outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def measure_setup(workload, seed, env):
    """Seconds from launching a fresh interpreter until it has built every input."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code} without 'ready'")
    return elapsed


def run_ops(ops, seconds, tracer=None, sequence=None, reference=None):
    """Run ops in order, cycling, until their busy time reaches ``seconds``.

    With ``sequence`` the given op indices are run instead (a replay).
    ``reference``, if given, is timed before every op (see hostspeed.py).
    Returns one record per op: index, seconds, reference, passed, deviation,
    reason, result.
    """
    records = []
    busy = 0.0
    n = 0
    while (busy < seconds) if sequence is None else (n < len(sequence)):
        index = n % len(ops) if sequence is None else sequence[n]
        op = ops[index]
        ref = reference() if reference is not None else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if error is not None:
            passed, dev, reason = False, math.inf, f"raised {error!r}"
        else:
            try:
                passed, dev, reason = op.check(result)
            except Exception as exc:  # a check that cannot run is a failed check
                passed, dev, reason = False, math.inf, f"check raised {exc!r}"
        records.append({"index": index, "seconds": elapsed, "reference": ref, "passed": passed,
                        "dev": dev, "reason": reason, "result": result})
        busy += elapsed
        n += 1
    return records


def report_failures(records, ops):
    for rec in records:
        if not rec["passed"]:
            print(f"FAIL {ops[rec['index']].label}: {rec['reason']}")


def end_to_end(workload, records, setup, setup_refs, nominal, child_rss):
    """End-to-end metrics; times in reference seconds (see hostspeed.py).

    Op times are scaled by ``nominal`` over the median reference time of the
    run, set-up times by the process reference's.
    """
    from stats import digits, median, tail

    op_ref = median([rec["reference"] for rec in records])
    scale = nominal / op_ref
    setup_ref = median(setup_refs)
    wall = [rec["seconds"] for rec in records]
    times = [t * scale for t in wall]
    tail_value, tail_pct, count = tail(times)
    # an op that raised has no deviation; it is counted in ``failed``
    max_dev = max((rec["dev"] for rec in records if math.isfinite(rec["dev"])), default=1.0)
    if workload == "cli":
        rss = child_rss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": median(times),
        "op_tail_s": tail_value,
        "setup_s": median(setup) * hostspeed.PROCESS_NOMINAL / setup_ref,
        "peak_rss_mb": rss / 2 ** 20,
        "accuracy_digits": digits(max_dev),
    }
    notes = {
        "host_speed": f"ops {scale:.3f} (reference {op_ref:.4f} s, nominal {nominal} s), "
                      f"set-up {hostspeed.PROCESS_NOMINAL / setup_ref:.3f} (reference "
                      f"{setup_ref:.4f} s, nominal {hostspeed.PROCESS_NOMINAL} s)",
        "ops_per_s": f"{len(wall)} ops in {sum(wall):.2f} s wall; "
                     f"wall {len(wall) / sum(wall):.4g}/s",
        "op_p50_s": f"wall {median(wall):.4g} s",
        "op_tail_s": f"p{tail_pct:.1f} of {count} ops; wall {tail(wall)[0]:.4g} s",
        "setup_s": f"median of {len(setup)} fresh interpreters; wall {median(setup):.4g} s",
        "peak_rss_mb": "largest CLI child" if workload == "cli" else "benchmark process",
        "accuracy_digits": f"-log10 of max |S - S_ref| = {max_dev:.3e}",
    }
    return metrics, notes


def layer_metrics(table, n_ops, extra):
    """Per-layer metrics from a span table of ``n_ops`` traced ops."""
    import numpy as np

    from spans import ancestor_of, self_times

    ids = {name: i for i, name in enumerate(table["names"])}
    dur = table["end"] - table["start"]

    def mask(name):
        if name not in ids:
            return np.zeros(len(dur), dtype=bool)
        return table["name"] == ids[name]

    def count(name):
        return int(mask(name).sum())

    def total(name):
        return float(dur[mask(name)].sum())

    def mean(name):
        c = count(name)
        return total(name) / c if c else 0.0

    def per(value, base):
        return value / base if base else 0.0

    prop = mask("numerics.propagate")
    own = self_times(table["start"], table["end"], table["parent"])
    propagate_self = float(own[prop].sum())

    solves = np.flatnonzero(mask("oracle.solve"))
    solve_of = ancestor_of(table, "oracle.solve")
    spans_per_solve = []
    for s in solves:
        inside = prop & (solve_of == s)
        if table["size"][s] > 0:
            spans_per_solve.append(float(table["size"][inside].sum() / table["size"][s]))

    derives = count("crossings.derive")
    in_derive = ancestor_of(table, "crossings.derive") >= 0
    model_calls = mask("models.hamiltonian") | mask("models.partner")
    counters = table["counters"]
    metrics = {
        "models.build_s": mean("models.build"),
        "models.hamiltonian_calls": per(count("models.hamiltonian"), n_ops),
        "models.hamiltonian_s": per(total("models.hamiltonian"), n_ops),
        "models.partner_calls": per(count("models.partner"), n_ops),
        "models.partner_s": per(total("models.partner"), n_ops),
        "numerics.propagate_calls": per(int(prop.sum()), n_ops),
        "numerics.propagate_s": per(total("numerics.propagate"), n_ops),
        "numerics.propagate_self_s": per(propagate_self, n_ops),
        "numerics.eigh_calls": per(counters.get("eigh_calls", 0), n_ops),
        "numerics.eigh_matrices": per(counters.get("eigh_matrices", 0), n_ops),
        "numerics.eigh_s": per(counters.get("eigh_s", 0.0), n_ops),
        "oracle.solve_s": mean("oracle.solve"),
        "oracle.propagated_span_per_solve":
            sum(spans_per_solve) / len(spans_per_solve) if spans_per_solve else 0.0,
        "laxflow.evolve_lax_s": mean("laxflow.evolve_lax"),
        "laxflow.smatrix_spin_s": mean("laxflow.smatrix_spin"),
        "crossings.derive_s": mean("crossings.derive"),
        "crossings.events": per(float(table["size"][mask("crossings.derive")].sum()), derives),
        "crossings.diag_evals": per(int((model_calls & in_derive).sum()), derives),
        "crossings.brentq_calls": per(int((mask("crossings.brentq") & in_derive).sum()), derives),
        "crossings.compose_s": mean("crossings.compose"),
        "zerocurv.verify_s": mean("zerocurv.verify"),
        "cli.command_s.smatrix": mean("cli.command.smatrix"),
        "cli.command_s.sweep": mean("cli.command.sweep"),
        "cli.command_s.zero-curvature": mean("cli.command.zero-curvature"),
        "cli.command_s.model_show": mean("cli.command.model_show"),
    }
    metrics.update(extra)
    return metrics


def cli_probes(env):
    """Bare interpreter start and ``import lzscatter.cli`` on top of it (medians)."""
    from stats import median
    from workloads import time_process

    bare = [time_process([sys.executable, "-c", "pass"], env) for _ in range(PROBE_REPEATS)]
    imp = [time_process([sys.executable, "-c", "import lzscatter.cli"], env)
           for _ in range(PROBE_REPEATS)]
    return {"cli.interp_s": median(bare), "cli.import_s": median(imp) - median(bare)}


def traced_run(workload, seed, seconds, inputs, env, tmp):
    """Per-layer metrics from traced ops, each followed by an untraced run of itself."""
    import lzscatter
    from inputs import models_to_build
    from spans import Tracer, load_table, merge_tables, save_table
    from workloads import CLI_ENTRY, make_ops, warm_up

    tracer = Tracer()
    ledger = str(tmp / "ledger.jsonl")
    spans_dir = tmp / "spans"
    spans_dir.mkdir()
    plain = make_ops(workload, inputs, env, ledger, [sys.executable, "-c", CLI_ENTRY])
    warm_up(workload, plain, env)
    tracer.install()
    for kwargs in models_to_build(workload, seed):
        lzscatter.build_model(**kwargs)
    tracer.uninstall()

    if workload == "cli":
        traced_ops = make_ops(workload, inputs, env, ledger,
                              [sys.executable, str(HERE / "cli_shim.py"), str(spans_dir)])
        open(ledger, "w").close()
    else:
        traced_ops = plain
    # each traced op is followed by the same op untraced, so that the
    # overhead ratio is not skewed by the host's speed drifting in between
    records, replay = [], []
    while sum(rec["seconds"] for rec in records) < seconds:
        index = len(records) % len(plain)
        records += run_ops(traced_ops, 0.0, tracer=None if workload == "cli" else tracer,
                           sequence=[index])
        replay += run_ops(plain, 0.0, sequence=[index])
    if workload == "cli":
        with open(ledger, "rb") as fh:
            lines = fh.read().splitlines()
        extra = {"cli.ledger_bytes_per_record":
                 sum(len(line) + 1 for line in lines) / max(len(lines), 1)}
    else:
        extra = {"cli.ledger_bytes_per_record": 0.0}
    traced_busy = sum(rec["seconds"] for rec in records)
    untraced_busy = sum(rec["seconds"] for rec in replay)
    extra["trace.overhead"] = traced_busy / untraced_busy
    extra.update(cli_probes(env))

    tables = [tracer.table()] + [load_table(p) for p in sorted(spans_dir.glob("*.npz"))]
    table = merge_tables(tables)
    OUT.mkdir(exist_ok=True)
    save_table(table, OUT / f"trace-{workload}.npz")
    metrics = layer_metrics(table, len(records), extra)
    notes = {"trace.overhead": f"traced {traced_busy:.2f} s / untraced {untraced_busy:.2f} s "
                               f"over the same {len(records)} ops",
             "numerics.propagate_self_s": "propagate minus its models child spans"}
    return records + replay, plain, metrics, notes, len(table["start"])


def run_workload(args):
    from inputs import make_inputs

    start_info = provenance()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        env = child_env(tmp)
        tempfile.tempdir = str(tmp)
        inputs = make_inputs(args.workload, args.seed)
        print(f"# lzscatter benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("# provenance " + json.dumps(start_info, sort_keys=True))
        if args.trace:
            records, ops, metrics, notes, n_spans = traced_run(
                args.workload, args.seed, args.seconds, inputs, env, tmp)
            units = dict(PER_LAYER)
            print(f"# {n_spans} spans written to {(OUT / f'trace-{args.workload}.npz').name}")
        else:
            if args.workload == "cli":
                reference = partial(hostspeed.time_numpy_process, env)
                nominal = hostspeed.PROCESS_NOMINAL
            else:
                reference, nominal = hostspeed.time_kernel, hostspeed.KERNEL_NOMINAL
            reference()
            setup_refs, setup = [], []
            for _ in range(SETUP_REPEATS):
                setup_refs.append(hostspeed.time_numpy_process(env))
                setup.append(measure_setup(args.workload, args.seed, env))
            from workloads import CLI_ENTRY, make_ops, warm_up

            ledger = str(tmp / "ledger.jsonl")
            ops = make_ops(args.workload, inputs, env, ledger,
                           [sys.executable, "-c", CLI_ENTRY])
            warm_up(args.workload, ops, env)
            records = run_ops(ops, args.seconds, reference=reference)
            child_rss = max((rec["result"][3] for rec in records if rec["result"]),
                            default=0) if args.workload == "cli" else 0
            metrics, notes = end_to_end(args.workload, records, setup, setup_refs, nominal,
                                        child_rss)
            print(f"# host speed scale: {notes.pop('host_speed')}")
            units = dict(END_TO_END)
        for name, unit in units.items():
            print(f"{name:34s} {metrics[name]:14.6g} {unit:12s} {notes.get(name, '')}".rstrip())
        report_failures(records, ops)
        (OUT / f"ops-{args.workload}.json").write_text(json.dumps(
            [{"op": ops[rec["index"]].label, "seconds": rec["seconds"], "passed": rec["passed"],
              "deviation": rec["dev"], "reason": rec["reason"]} for rec in records], indent=1))
        failed = sum(not rec["passed"] for rec in records)
        result = {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(args):
    """Each workload in its own process; prints every metric and writes results.json."""
    results = {"provenance": provenance(), "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            results["workloads"][workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results["workloads"][workload] = {"correct": False, "exit": proc.returncode}
        code = code or proc.returncode
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    summary = {w: r.get("correct") for w, r in results["workloads"].items()}
    print(json.dumps({"correct": all(summary.values()), "workloads": summary}))
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lzscatter" / "__init__.py").is_file():
        print(f"error: no lzscatter sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

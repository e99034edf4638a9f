"""Self-test of the benchmark's own parts; run from the repository root:

    python3 perfbench/selftest.py

Builds every generated input for a range of seeds and checks the generator's
validity rules, checks that one seed reproduces identical inputs, and checks
the percentile and self-time helpers and the tracer on synthetic spans.
Exits 0 when every check holds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import lzscatter  # noqa: E402
from lzscatter.cli import _parse_range, build_parser  # noqa: E402

from inputs import GENERATORS, make_inputs, model_kwargs, models_to_build  # noqa: E402
from spans import Tracer, ancestor_of, merge_tables, self_times  # noqa: E402
from stats import digits, median, tail  # noqa: E402

SEEDS = range(20)
PARTNERED = ("bowtie3", "bowtieN", "su3six", "su3adj8")


def check_inputs():
    parser = build_parser()
    levels = set()
    for workload in GENERATORS:
        for seed in SEEDS:
            items = make_inputs(workload, seed)
            assert items == make_inputs(workload, seed), f"{workload} seed {seed} not reproducible"
            assert items != make_inputs(workload, seed + 1000), f"{workload}: seed ignored"
            signs = {}
            for kwargs in models_to_build(workload, seed):
                model = lzscatter.build_model(**kwargs)
                levels.add(model.k)
                if model.family in PARTNERED:
                    assert model.eps != 0.0, f"{workload}: eps = 0"
                    signs.setdefault(model.family, set()).add(model.eps > 0)
                if model.family == "bowtieN":
                    mags = [abs(s) for s in model.slope]
                    assert all(a < b for a, b in zip(mags, mags[1:])), mags
                    if workload == "numeric":
                        assert model.slope[0] * model.slope[1] < 0, model.slope
            if workload != "cli":
                for family in PARTNERED:
                    assert signs[family] == {True, False}, f"{workload} {family}: one eps sign"
            for item in items:
                if workload == "cli":
                    try:
                        parser.parse_args([*item["argv"], "--ledger=unused.jsonl"])
                    except SystemExit:
                        raise AssertionError(f"CLI rejects {item['argv']}") from None
                sweep = item["model"].get("sweep")
                if sweep is not None:
                    flag = f"--{sweep['param']}="
                    text = next(a for a in item["argv"] if a.startswith(flag))[len(flag):]
                    assert _parse_range(text).tolist() == sweep["values"], text
                else:
                    model_kwargs(item["model"])
    assert min(levels) == 2 and max(levels) == 8, sorted(levels)
    return f"inputs: {len(GENERATORS)} workloads x {len(SEEDS)} seeds, levels {sorted(levels)}"


def check_stats():
    assert median([3, 1, 2]) == 2 and median([4, 1, 3, 2]) == 2.5
    value, pct, n = tail(list(range(1, 31)))
    assert (value, n) == (20, 30) and abs(pct - 200 / 3) < 1e-12
    assert tail([5, 1, 2]) == (5, 100.0, 3)
    value, pct, n = tail(range(100))
    assert value == 89 and pct == 90.0
    assert abs(digits(1e-3) - 3.0) < 1e-12 and digits(0.0) == digits(2.0 ** -52)
    return "stats: median, tail percentile, digits"


def check_self_times():
    # 0: [0, 10]; children 1: [1, 3] and 2: [2, 5] overlap, 3: [8, 12] runs
    # past the parent; 4: [2.5, 4] is a grandchild and covers nothing of 0
    start = [0.0, 1.0, 2.0, 8.0, 2.5]
    end = [10.0, 3.0, 5.0, 12.0, 4.0]
    parent = [-1, 0, 0, 0, 2]
    own = self_times(start, end, parent)
    assert np.allclose(own, [10 - 6, 2, 3 - 1.5, 4, 1.5]), own
    table = {"names": ["a", "b", "c"], "name": np.array([0, 1, 1, 2, 2]),
             "parent": np.array(parent)}
    assert ancestor_of(table, "b").tolist() == [-1, 1, 2, -1, 2]
    assert ancestor_of(table, "a").tolist() == [0, 0, 0, 0, 0]
    assert ancestor_of(table, "zzz").tolist() == [-1] * 5
    return "spans: self time with overlapping and overhanging children, ancestors"


def check_tracer():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(inner(x)), "outer", size_out=float)
    assert outer(1) == 3
    table = tracer.table()
    assert [table["names"][i] for i in table["name"]] == ["outer", "inner", "inner"]
    assert table["parent"].tolist() == [-1, 0, 0] and table["size"][0] == 3.0
    own = self_times(table["start"], table["end"], table["parent"])
    children = (table["end"] - table["start"])[1:].sum()
    assert abs(own[0] - (table["end"][0] - table["start"][0] - children)) < 1e-12
    # the same spans under a table whose name ids are the other way round
    swapped = {**table, "names": table["names"][::-1], "name": 1 - table["name"],
               "counters": {"eigh_calls": 2}}
    merged = merge_tables([table, swapped])
    assert [merged["names"][i] for i in merged["name"]] == ["outer", "inner", "inner"] * 2
    assert merged["parent"].tolist() == [-1, 0, 0, -1, 3, 3]
    assert merged["counters"]["eigh_calls"] == 2

    model = lzscatter.build_model("bowtie3", delta=0.3, slope=1.0, eps=1.0)
    originals = (lzscatter.derive_schedule_generic, lzscatter.crossings.brentq,
                 lzscatter.models.AffineModel.hamiltonian, np.linalg.eigh)
    tracer = Tracer()
    tracer.install()
    try:
        lzscatter.derive_schedule_generic(model)
    finally:
        tracer.uninstall()
    table = tracer.table()
    names = [table["names"][i] for i in table["name"]]
    assert names[0] == "crossings.derive" and "models.hamiltonian" in names
    restored = (lzscatter.derive_schedule_generic, lzscatter.crossings.brentq,
                lzscatter.models.AffineModel.hamiltonian, np.linalg.eigh)
    assert all(a is b for a, b in zip(originals, restored)), "wrapper left installed"
    return f"tracer: nesting, merge, install/uninstall ({len(names)} spans of one derive)"


def main():
    for check in (check_inputs, check_stats, check_self_times, check_tracer):
        print("ok", check())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

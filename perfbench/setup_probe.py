"""Set-up probe: import the package, build every input's model, then say so.

Usage: python perfbench/setup_probe.py WORKLOAD SEED

Prints ``ready`` once ``lzscatter`` (``lzscatter.cli`` for the cli
workload) is imported and ``build_model`` has run for every model of the
workload's inputs.  The benchmark times this process from launch to that
line: the set-up a user pays before the first op can start.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "cli":
        import lzscatter.cli  # noqa: F401
    import lzscatter
    from inputs import models_to_build

    for kwargs in models_to_build(workload, seed):
        lzscatter.build_model(**kwargs)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

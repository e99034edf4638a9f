"""Run one ``lzscatter`` command with the span tracer installed.

Usage: python perfbench/cli_shim.py SPANS_DIR [lzscatter arguments ...]

Installs the wrappers of ``spans.TRACED`` and ``spans.CLI_TRACED``, calls
``lzscatter.cli.main`` with the remaining arguments, and writes the spans to
``SPANS_DIR/spans-<pid>.npz``.  Exits with the command's exit code.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lzscatter.cli  # noqa: E402

from spans import CLI_TRACED, TRACED, Tracer, save_table  # noqa: E402


def main():
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(TRACED + CLI_TRACED)
    try:
        return lzscatter.cli.main(argv)
    finally:
        tracer.uninstall()
        save_table(tracer.table(), os.path.join(spans_dir, f"spans-{os.getpid()}.npz"))


if __name__ == "__main__":
    raise SystemExit(main())

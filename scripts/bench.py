#!/usr/bin/env python
"""Run the bench registry (:mod:`repro.bench`), gate it and write the report.

Runs the named entries (default: all of them, in registry order), merges
their sections into ``--output`` (other sections already in that file
are kept as they are), evaluates the gates of the sections produced by
this invocation only, and records each verdict under the report's
``gates`` key.  Prints one line per gate and a last line naming every
soft gate that fired.  Exits 1 iff a hard gate fired.

    PYTHONPATH=src python scripts/bench.py        # all, full -> BENCH_sim.json
    PYTHONPATH=src python scripts/bench.py --smoke --only fluid \
        --output BENCH_fluid.json                    # one section, CI-sized
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import bench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized presets instead of the full ones")
    parser.add_argument("--only", nargs="+", choices=list(bench.ENTRIES),
                        metavar="NAME",
                        help=f"entries to run (default: all of "
                             f"{', '.join(bench.ENTRIES)})")
    parser.add_argument("--output", default="BENCH_sim.json",
                        help="report to merge the sections into")
    args = parser.parse_args(argv)

    names = [name for name in bench.ENTRIES
             if args.only is None or name in args.only]
    path = Path(args.output)
    report = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        print(f"== {name}{' (smoke)' if args.smoke else ''}", flush=True)
        report[name] = bench.ENTRIES[name].run(args.smoke)
    verdicts = bench.evaluate(report, names)
    report.setdefault("gates", {}).update(verdicts)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(names)} to {path}")
    for line in bench.summary(verdicts):
        print(line)
    return bench.exit_code(verdicts)


if __name__ == "__main__":
    sys.exit(main())

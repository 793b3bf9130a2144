#!/usr/bin/env python
"""Coverage-guided chaos fuzzing: search, replay, distill.

Runs the :mod:`repro.chaos.fuzz` engine over the fault-action
vocabulary.  The search is deterministic — ``(seed, budget, config)``
fully decides which specs run under which run-seeds.  The gated,
run-twice determinism check and the ``fuzz`` section of BENCH_sim.json
come from ``scripts/bench.py --only fuzz``.

Examples::

    PYTHONPATH=src python scripts/run_fuzz.py --budget 200 --seed 42 \
        --corpus-dir fuzz_corpus
    PYTHONPATH=src python scripts/run_fuzz.py \
        --replay tests/fixtures/chaos_corpus/*.json
    PYTHONPATH=src python scripts/run_fuzz.py --budget 300 \
        --distill 4 --distill-dir tests/fixtures/chaos_corpus
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.chaos import load_spec  # noqa: E402
from repro.chaos.fuzz import (Corpus, CorpusEntry, FuzzConfig,  # noqa: E402
                              FuzzEngine, evaluate_spec, shrink)
from repro.obs.coverage import coverage_summary  # noqa: E402


def replay(paths, arm: str, capacity: int) -> int:
    """Re-run spec/corpus-entry files; verify recorded digests match."""
    failures = 0
    for path in paths:
        spec = load_spec(path)
        data = json.loads(Path(path).read_text())
        meta = data.get("meta", {}) if isinstance(data, dict) else {}
        seed = int(meta.get("run_seed", 0))
        result = evaluate_spec(spec, arm, seed, capacity)
        digest_ok = (not meta.get("digest")
                     or meta["digest"] == result["digest"])
        mark = "ok " if digest_ok and not result["violations"] else "FAIL"
        print(f"{mark} {Path(path).name}: digest={result['digest'][:12]} "
              f"seed={seed} "
              f"{coverage_summary(frozenset(result['coverage']))}")
        if not digest_ok:
            failures += 1
            print(f"::error title=fuzz replay::{path}: journal digest "
                  f"{result['digest']} != recorded {meta['digest']}")
        for violation in result["violations"]:
            failures += 1
            print(f"::error title=fuzz replay::{path}: "
                  f"{violation['invariant']}: {violation['message']}")
    return failures


def distill(engine_result, count: int, directory: Path,
            arm: str, capacity: int, shrink_evals: int) -> list:
    """Shrink the highest-novelty corpus entries to minimal specs that
    still produce their novel coverage keys, and save them as corpus
    entry files (the checked-in regression fixtures)."""
    from repro.chaos.fuzz.engine import run_seed_for  # noqa: E402

    ranked = sorted(engine_result.corpus.entries,
                    key=lambda e: (-len(e.novel), e.fingerprint))
    saved = []
    out = Corpus()
    for entry in ranked[:count]:
        target = entry.novel

        def keeps_coverage(spec) -> bool:
            result = evaluate_spec(spec, arm, entry.run_seed, capacity)
            return target <= frozenset(result["coverage"])

        minimal, _spent = shrink(entry.spec, keeps_coverage,
                                 max_evals=shrink_evals)
        from dataclasses import replace

        from repro.chaos import spec_fingerprint
        fingerprint = spec_fingerprint(minimal)
        minimal = replace(minimal, name=f"fuzz_{fingerprint[:12]}",
                          title=f"distilled coverage repro "
                                f"{fingerprint[:12]}")
        final = evaluate_spec(minimal, arm, entry.run_seed, capacity)
        if not target <= frozenset(final["coverage"]):
            print(f"::warning title=fuzz distill::{fingerprint[:12]}: "
                  f"novel keys not fully preserved after rename")
        out.entries.append(CorpusEntry(
            spec=minimal, fingerprint=fingerprint,
            run_seed=entry.run_seed, digest=final["digest"],
            coverage=frozenset(final["coverage"]), novel=target,
            violated=frozenset(v["invariant"]
                               for v in final["violations"]),
            parent=entry.fingerprint, op="shrink"))
        saved.append(minimal)
    paths = out.save(directory)
    for path, entry in zip(paths, out.entries):
        print(f"distilled {path} ({len(entry.spec.actions)} action(s), "
              f"{len(entry.novel)} novel key(s))")
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(
        description="coverage-guided chaos scenario fuzzing")
    parser.add_argument("--budget", type=int, default=200,
                        help="candidate executions (runs, not seconds — "
                             "keeps the search deterministic)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--batch", type=int, default=8,
                        help="candidates generated per round")
    parser.add_argument("--arm", default="sm", choices=["sm", "baseline"])
    parser.add_argument("--capacity", type=int, default=1 << 20)
    parser.add_argument("--processes", type=int, default=0,
                        help="pool size for batch evaluation "
                             "(0/1 = serial)")
    parser.add_argument("--corpus-dir", default=None,
                        help="save every admitted corpus entry here")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="skip delta-debugging violating timelines")
    parser.add_argument("--shrink-evals", type=int, default=48,
                        help="max re-runs per shrink")
    parser.add_argument("--replay", nargs="*", default=None,
                        metavar="SPEC.json",
                        help="re-run spec/corpus files and verify "
                             "recorded digests instead of searching")
    parser.add_argument("--distill", type=int, default=0, metavar="N",
                        help="after the search, shrink the N highest-"
                             "novelty entries to minimal coverage repros")
    parser.add_argument("--distill-dir", default="fuzz_distilled",
                        help="where --distill writes its entries")
    args = parser.parse_args()

    if args.replay is not None:
        if not args.replay:
            parser.error("--replay needs at least one spec file")
        failures = replay(args.replay, args.arm, args.capacity)
        print(f"replayed {len(args.replay)} spec(s), "
              f"{failures} failure(s)")
        return 1 if failures else 0

    config = FuzzConfig(seed=args.seed, budget=args.budget,
                        batch=args.batch, arm=args.arm,
                        capacity=args.capacity,
                        shrink_violations=args.shrink,
                        shrink_evals=args.shrink_evals,
                        processes=args.processes)
    start = time.perf_counter()
    result = FuzzEngine(config).run()
    wall = time.perf_counter() - start
    stats = result.stats
    keys = result.coverage_set()
    print(f"fuzz: {stats.executed} specs in {wall:.1f}s "
          f"({stats.executed / wall:.1f} specs/s), corpus "
          f"{len(result.corpus)}, {coverage_summary(keys)}, "
          f"{stats.violating} violating, coverage digest "
          f"{result.coverage_digest()[:12]}")

    failures = 0
    for entry in result.violations:
        failures += 1
        print(f"::error title=fuzz violation::{entry.spec.name} "
              f"(seed {entry.run_seed}) breaks "
              f"{sorted(entry.violated)}: "
              f"{[(a.kind, a.at) for a in entry.spec.actions]}")

    if args.corpus_dir:
        paths = result.corpus.save(args.corpus_dir)
        print(f"saved {len(paths)} corpus entries to {args.corpus_dir}")
    if result.violations and args.corpus_dir:
        viol = Corpus()
        viol.entries = list(result.violations)
        viol.save(Path(args.corpus_dir) / "violations")

    if args.distill:
        distill(result, args.distill, Path(args.distill_dir), args.arm,
                args.capacity, args.shrink_evals)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

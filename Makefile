PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-quick bench-sim bench-smoke bench-request profile trace-fig17

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Seconds-fast regression check: the solver hot-path microbenchmark at a
# small scale point, then the tier-1 test suite.
bench-quick:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		benchmarks/test_solver_hotpath.py::test_solver_hotpath_quick \
		--benchmark-only -q
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The bench registry (src/repro/bench.py): figure sweep, control-plane
# scale sweep, fluid engine, hot-key skew and chaos fuzz search, each
# gated (hard: same-seed digests and zero invariant violations; soft:
# wall-clock floors) -> BENCH_sim.json, verdicts under its `gates` key.
# Exits 1 iff a hard gate fired.  The 10^6-shard scale point takes a few
# minutes; one section: `scripts/bench.py --only NAME`.
bench-sim:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/bench.py

# The same registry at CI size into a scratch report (the fuzz entry
# also saves its corpus under fuzz_corpus/).
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/bench.py --smoke \
		--output BENCH_smoke.json

# Request-path microbenchmark: requests/s through router + server on a
# two-region topology (the number DESIGN.md's fast-path section quotes).
bench-request:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_request_path.py

profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/profile_solver.py --factor 5 --point 2

# Traced Fig 17 (SM arm, smoke scale): writes a Perfetto-loadable
# Chrome trace + raw JSONL journal and hard-fails on any TraceChecker
# invariant violation.  Open trace_fig17.json at https://ui.perfetto.dev
trace-fig17:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) scripts/run_experiments.py --smoke \
		--trace-figure fig17:sm --trace trace_fig17.json \
		--journal trace_fig17.jsonl --check-trace

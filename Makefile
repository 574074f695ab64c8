# Developer entry points.  The tier-1 suite must pass under BOTH execution
# backends (see src/repro/core/backend.py); `make test` enforces that, and
# finishes with a tiny-config benchmark smoke run of both the backend chain
# and the application pipelines.

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test lint lint-changed test-unpacked test-packed test-faulty \
	test-serving \
	bench-smoke serve-smoke bench-backend bench-apps bench-faults \
	bench-serve bench-serve-load bench-serve-soak bench-transport bench \
	perfbench-smoke

test: lint test-unpacked test-packed bench-smoke serve-smoke

# Lint gate.  repro-lint (tools/repro_lint/, dependency-free) always
# runs: it carries both the project-invariant rules RL001-RL005 and a
# stdlib mirror of the pyproject ruff selection, so the hermetic
# container enforces the same floor as CI.  When ruff is installed it
# runs first for the richer diagnostics on the shared hygiene rules.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		echo "ruff check"; ruff check .; \
	fi
	PYTHONPATH=tools $(PYTHON) -m repro_lint

# Fast pre-push loop: lint only the files changed against REF (default
# main).  Partial view — the unused-suppression and stale-baseline
# checks are skipped; the full `make lint` gate still runs everything.
REF ?= main
lint-changed:
	PYTHONPATH=tools $(PYTHON) -m repro_lint --changed-since $(REF)

test-unpacked:
	REPRO_BACKEND=unpacked $(PYTEST) -x -q

test-packed:
	REPRO_BACKEND=packed $(PYTEST) -x -q

# Faulty-mode focus run: the fault-sampling conformance/golden suite under
# both backends (a subset of the tier-1 suite, for quick iteration on the
# fault model).
test-faulty:
	REPRO_BACKEND=unpacked $(PYTEST) -x -q tests/test_fault_sampling.py
	REPRO_BACKEND=packed $(PYTEST) -x -q tests/test_fault_sampling.py

# Serving-layer focus run (a subset of the tier-1 suite, for quick
# iteration on the scheduler/pool).
test-serving:
	REPRO_BACKEND=unpacked $(PYTEST) -x -q tests/test_serving.py
	REPRO_BACKEND=packed $(PYTEST) -x -q tests/test_serving.py

# Quick throughput checks (~seconds): packed-vs-unpacked word chain, a
# tiny-config end-to-end app run (bench_apps pins each configuration's
# backend itself, so one invocation covers both), and shm-vs-copy scene
# transport on a small repeated scene.  Tiny workloads are
# overhead-dominated — this is a does-it-run smoke, not the >=4x/1.5x
# guards (those are bench-backend / bench-apps / bench-transport at
# full scale).
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_backend.py \
		--length 131072 --batch 128 --repeats 2
	PYTHONPATH=src $(PYTHON) benchmarks/bench_stob.py \
		--streams 8192 --length 256 --repeats 2
	PYTHONPATH=src $(PYTHON) benchmarks/bench_apps.py \
		--length 64 --size 24 --tile 12 --jobs 2 --repeats 1 --apps matting
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py \
		--length 64 --size 16 --repeats 1 --min-speedup 2
	PYTHONPATH=src $(PYTHON) benchmarks/bench_transport.py \
		--size 256 --tile 128 --requests 8 --jobs 2 --min-speedup 0

# Tiny-config serving smoke: resident-pool vs cold per-request pools on a
# handful of small requests.  Does-it-run + bit-identity only (speedup
# guard disabled: tiny timings flake under CI load); the 1.5x
# amortisation guard runs at full scale via bench-serve / make bench.
serve-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py \
		--requests 4 --size 12 --length 32 --jobs 2 --min-speedup 0

# Short runs of the repository benchmark (perfbench/, BENCHMARK.json):
# the paper-table sweep, whose every Table I/II/IV cell must equal the
# stored references in perfbench/table_refs.json, and the big-scene
# serving mix, whose every checked response must equal run_tiled(jobs=1).
# Either run exits 1 on any mismatch.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload paper_tables --seconds 5
	$(PYTHON) perfbench/run.py --workload serve_bigscene --seconds 5

# Full acceptance-scale backend benchmark (1e6-bit x 1024-stream chain).
bench-backend:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_backend.py

# Full acceptance-scale faulty-path benchmark (sparse vs dense sampling).
bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_faults.py

# Full acceptance-scale application benchmark (seed path vs packed+sharded).
bench-apps:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_apps.py

# Full acceptance-scale serving benchmark (resident pool amortisation).
bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py

# Full acceptance-scale scene-transport benchmark: shm scene store vs
# per-request copy on repeated big-scene requests (>= 1.5x served
# throughput, responses bit-identical to run_tiled(jobs=1) both ways).
bench-transport:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_transport.py

# Open-loop load generator at smoke scale: replays a mixed request trace
# (big+small scenes, faulty+fault-free engines, both backends) against
# ServingClient, verifies every response bit-identical to
# run_tiled(jobs=1), and reports p50/p90/p99 latency + saturation
# throughput into BENCH_serve.json.  Flags of interest (see
# benchmarks/loadgen.py): --rate R paces arrivals open-loop at R req/s
# (0 = one burst), --front-end stdio drives the JSON loop instead,
# --soak runs the >=1000-request worker-death acceptance soak.
bench-serve-load:
	PYTHONPATH=src $(PYTHON) benchmarks/loadgen.py \
		--requests 24 --jobs 2 --small 8 --big 12 --length 32

# Sustained-load acceptance soak: >= 1000 mixed requests with a worker
# death injected mid-stream; requires zero incorrect responses, only
# BrokenProcessPool failures at the kill, and a pool restart.
bench-serve-soak:
	PYTHONPATH=src $(PYTHON) benchmarks/loadgen.py --soak

# Full reproduction report (all tables/figures + perf guards).  The old
# `pytest benchmarks/ --benchmark-only` form collected nothing (bench_*.py
# is outside pytest's test_*.py pattern -> exit 5, no report); the driver
# runs the CLI and the bench scripts directly.
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_report.py --fresh

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Constraint inference iterates hash-seeded containers, so *cross-
# process-tree* constraint counts can drift by ~1 between differently
# seeded interpreters (see CHANGES.md / docs/ARCHITECTURE.md).  Pinning
# the seed makes test and benchmark counts reproducible run to run;
# within one process tree (fork workers) determinism never depended on
# this.
export PYTHONHASHSEED := 0

.PHONY: test test-fast lint bench bench-json bench-record bench-check chaos chaos-json fleet-bench obs-bench trace-demo docs-check quickstart pipeline fleet serve all

all: test docs-check

# Tier-1 verification: dead-code/mutable-default lint, then the full
# unit/integration/benchmark suite.
test: lint
	$(PYTHON) -m pytest -x -q

# Inner-loop verification: everything except the benchmark tier
# (benchmarks/ carries the `bench` marker via its conftest).
test-fast: lint
	$(PYTHON) -m pytest -x -q -m "not bench"

# AST-based dead-code + mutable-default checks (no third-party install
# needed); add LINT_EXTERNAL=1 to also run ruff/pyflakes when installed.
LINT_EXTERNAL ?=
lint:
	$(PYTHON) tools/lint.py $(if $(LINT_EXTERNAL),--external)

# Benchmark suite only, with the regenerated tables printed.
bench:
	$(PYTHON) -m pytest benchmarks -q -s

# Launch-engine perf trajectory: regenerates BENCH_launch.json
# (per-system tree/cold/warm launch throughput, cold campaign
# wall-clock under both engines, boot/cache counters).
bench-json:
	$(PYTHON) tools/bench_json.py

# Warm-throughput drift check against the committed BENCH_launch.json.
# Advisory by default (absolute numbers are machine-dependent); set
# BENCH_GUARD=1 to fail on any >20% per-system/engine regression.
bench-check:
	$(PYTHON) tools/bench_json.py --check

# Chaos tier: every recovery path proven end-to-end (kill/resume
# checkpoint parity, retry/quarantine, serve load-shedding and circuit
# breakers), then the recovery-overhead check against the committed
# BENCH_chaos.json (fault catalog in docs/ROBUSTNESS.md).
chaos:
	$(PYTHON) -m pytest tests/chaos -x -q
	$(PYTHON) tools/bench_json.py --chaos --check

# Regenerate BENCH_chaos.json (recovery overhead vs fault-free twin).
chaos-json:
	$(PYTHON) tools/bench_json.py --chaos

# Fleet-scale config-checking benchmark only: configs/sec, executor
# speedup over serial, compiled-checker cache hit rate.
fleet-bench:
	$(PYTHON) -m pytest benchmarks/test_fleet_throughput.py -q -s

# Telemetry overhead benchmark only: enabled-vs-disabled warm launch
# throughput (<=5% budget) plus verdict/footer parity; writes
# .bench_build/BENCH_obs.json.
obs-bench:
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py -q -s

# Re-record the committed BENCH_serve.json and BENCH_obs.json.  Their
# benchmarks write to the git-ignored .bench_build/ (so tier-1 never
# rewrites tracked files); this is the only target that copies the
# results over the committed files, and only when every assert passed.
bench-record:
	$(PYTHON) -m pytest benchmarks/test_serve_throughput.py \
		benchmarks/test_obs_overhead.py -q -s
	cp .bench_build/BENCH_serve.json .bench_build/BENCH_obs.json .

# Run one traced campaign and print its NDJSON spans on stdout (span
# taxonomy in docs/OBSERVABILITY.md).
trace-demo:
	$(PYTHON) examples/trace_demo.py

# Fails if README code blocks drift from working imports.
docs-check:
	$(PYTHON) tools/docs_check.py

quickstart:
	$(PYTHON) examples/quickstart.py

# Always-on validation service on a fixed local port; submit configs
# with `python -m repro.reporting.cli submit <system> <file> --port ...`.
SERVE_PORT ?= 7423
serve:
	$(PYTHON) -m repro.reporting.cli serve --port $(SERVE_PORT)

# The batched multi-system campaign sweep (serial by default;
# EXECUTOR=thread|process to fan out).
EXECUTOR ?= serial
pipeline:
	$(PYTHON) -m repro.reporting.cli pipeline --executor $(EXECUTOR)

# Fleet-scale synthetic-config validation through the CLI.
FLEET_SIZE ?= 200
fleet:
	$(PYTHON) -m repro.reporting.cli fleet --executor $(EXECUTOR) \
		--size $(FLEET_SIZE) --sample 20

# UUCS reproduction — common workflows.

PYTHON ?= python

.PHONY: install test lint bench bench-check perfbench-smoke perfbench-ab trace-demo reproduce examples validate clean help

help:
	@echo "install     editable install (falls back to setup.py develop offline)"
	@echo "test        run the test suite"
	@echo "lint        static checks (ruff, else pyflakes, else compileall)"
	@echo "bench       run all benchmarks (regenerates benchmarks/artifacts/)"
	@echo "bench-check fresh perf benchmarks gated against committed baselines"
	@echo "perfbench-smoke  short run of the repo benchmark's four workloads + a traced pass"
	@echo "perfbench-ab     BASE=<rev> [HEAD=<rev>] WORKLOAD=<w> PAIRS=10: alternating"
	@echo "                 benchmark runs of two revisions, each a fresh git archive"
	@echo "trace-demo  6-process distributed trace: study + client/server sync"
	@echo "reproduce   study -> analyze -> validate, via the uucs CLI"
	@echo "examples    run every example script"
	@echo "clean       remove generated stores, caches, artifacts"

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Use the best linter available; offline containers may only have compileall.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	elif $(PYTHON) -m pyflakes --help >/dev/null 2>&1; then \
		$(PYTHON) -m pyflakes src tests benchmarks examples; \
	else \
		echo "ruff/pyflakes unavailable; falling back to compileall"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The CI bench-regression job, runnable locally: regenerate the perf
# reports into out/ and fail if any regressed >30% vs the committed
# baselines, or if the dashboard costs the push gateway more than its
# absolute overhead limit (see benchmarks/bench_check.py for what
# counts).
bench-check:
	mkdir -p out
	PYTHONPATH=src $(PYTHON) benchmarks/bench_study_shards.py \
		--out out/fresh-study.json --telemetry out/bench-traces
	PYTHONPATH=src $(PYTHON) benchmarks/bench_server.py --out out/fresh-server.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_dashboard.py --out out/fresh-dashboard.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scheduler.py --out out/fresh-scheduler.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_check.py BENCH_study.json out/fresh-study.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_check.py BENCH_server.json out/fresh-server.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_check.py BENCH_dashboard.json out/fresh-dashboard.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_check.py BENCH_scheduler.json out/fresh-scheduler.json

# The repository benchmark (perfbench/run.py), briefly: each workload
# untraced for 4 s, then one traced pass; fails unless every run reports
# "correct": true and "failed": 0.
perfbench-smoke:
	$(PYTHON) benchmarks/perfbench_smoke.py

# The repository benchmark on two revisions, each exported fresh with
# git archive, in alternating pairs at the benchmark's own --seconds;
# prints every run, then each side's median and quartiles and the head's
# wins per end-to-end metric (see benchmarks/perfbench_ab.py).  HEAD
# defaults to the working tree (tracked files, and new files once
# staged).  Pair i uses seed SEED + i.
WORKLOAD ?= study
PAIRS ?= 10
SEED ?= 1
perfbench-ab:
	$(if $(BASE),,$(error BASE=<rev> is required))
	$(PYTHON) benchmarks/perfbench_ab.py --base $(BASE) $(if $(HEAD),--head $(HEAD)) \
		--workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

trace-demo:
	PYTHONPATH=src $(PYTHON) examples/trace_demo.py

reproduce:
	$(PYTHON) -m repro.cli study --users 33 --seed 2004 --results out/results
	$(PYTHON) -m repro.cli validate --results out/results
	$(PYTHON) -m repro.cli analyze --results out/results
	$(PYTHON) -m repro.cli import-db --results out/results --database out/results.sqlite

examples:
	for e in examples/*.py; do echo "== $$e"; $(PYTHON) $$e || exit 1; done

clean:
	rm -rf out .pytest_cache .hypothesis benchmarks/artifacts
	find . -name __pycache__ -type d -exec rm -rf {} +

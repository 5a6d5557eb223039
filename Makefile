# UUCS reproduction — common workflows.

PYTHON ?= python

.PHONY: install test lint bench bench-check perfbench-smoke trace-demo reproduce examples validate clean help

help:
	@echo "install     editable install (falls back to setup.py develop offline)"
	@echo "test        run the test suite"
	@echo "lint        static checks (ruff, else pyflakes, else compileall)"
	@echo "bench       run all benchmarks (regenerates benchmarks/artifacts/)"
	@echo "bench-check fresh perf benchmarks gated against committed baselines"
	@echo "perfbench-smoke  short run of the repo benchmark's four workloads + a traced pass"
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

# Convenience targets for the Cactis reproduction.

.PHONY: install test bench bench-recovery bench-server bench-check bench-gate examples results ci lint-schema lint-src analysis-check obs-check reorg-check server-check federation-check query-check clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-recovery: ## durability cost + recovery latency -> benchmarks/results/BENCH_recovery.json
	PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py --benchmark-only -q

lint-schema: ## static analysis over every example and paper-figure schema
	PYTHONPATH=src python -m repro.analysis --strict --paper-figures \
		examples/schemas/milestones.cactis examples/schemas/very_late.cactis
	PYTHONPATH=src python -m repro.analysis --strict \
		--functions file_mod_time,system_command examples/schemas/make.cactis
	PYTHONPATH=src python -m repro.analysis --strict examples/schemas/project.cactis

lint-src: ## ruff over src/ when available (config in pyproject.toml)
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src benchmarks; \
	else \
		echo "ruff not installed; falling back to a compile check"; \
		python -m compileall -q src benchmarks; \
	fi

# The *-check targets hold only what the tier-1 suite (`make ci` runs it
# once) does not: CLI and live-server smokes and the benchmark smokes.

analysis-check: ## --facts smoke over the paper figures
	PYTHONPATH=src python -m repro.analysis --strict --quiet --paper-figures \
		--facts /tmp/analysis-facts.json
	PYTHONPATH=src python -c "import json; d = json.load(open('/tmp/analysis-facts.json')); assert d, 'empty facts dump'; print('facts units:', ', '.join(sorted(d)))"
	rm -f /tmp/analysis-facts.json

obs-check: ## CLI smoke on a recorded trace
	PYTHONPATH=src python -m repro.obs demo --trace /tmp/obs-check.jsonl > /dev/null
	PYTHONPATH=src python -m repro.obs summarize /tmp/obs-check.jsonl
	rm -f /tmp/obs-check.jsonl

reorg-check: ## online-reorg benchmark smoke
	PYTHONPATH=src python -m pytest benchmarks/bench_reorg.py --benchmark-only -q

server-check: ## live server smoke (start, drive 8 clients, clean shutdown)
	PYTHONPATH=src python -m repro.server --smoke

federation-check: ## 4-site placement smoke + placement A/B bench
	PYTHONPATH=src python -m repro.distributed --smoke
	PYTHONPATH=src python -m pytest benchmarks/bench_distributed.py --benchmark-only -q

query-check: ## indexed-vs-scan A/B bench
	PYTHONPATH=src python -m pytest benchmarks/bench_query.py --benchmark-only -q

bench-check: ## the end-to-end harness's own quick traced pass (bench/trace.py wrappers resolve)
	python3 -m pytest bench -q

# The ref bench-gate measures against: origin/main when there is one, else
# the parent commit.  Override with `make bench-gate BASE=<git ref>`.
BASE ?= $(shell git rev-parse -q --verify origin/main >/dev/null 2>&1 && echo origin/main || echo HEAD~1)

bench-gate: ## the two in-process workloads on BASE and on this tree: counters identical, end-to-end within bounds
	@set -e; tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"; git worktree prune' EXIT; \
	git worktree add --detach "$$tmp/base" $(BASE) >/dev/null; \
	for w in embed_wave embed_query_churn; do \
		(cd "$$tmp/base" && python3 -m bench run --workload $$w --history "$$tmp/base.jsonl" >/dev/null); \
		python3 -m bench run --workload $$w --history "$$tmp/head.jsonl" >/dev/null; \
	done; \
	python3 -m bench compare "$$tmp/base.jsonl" "$$tmp/head.jsonl" | tee "$$tmp/verdict.txt"; \
	! grep -E "REGRESSION|CHANGED" "$$tmp/verdict.txt"

bench-server: ## served txn/s + p99 under 16 clients -> benchmarks/results/BENCH_server.json
	PYTHONPATH=src python -m pytest benchmarks/bench_server.py --benchmark-only -q

ci: ## what .github/workflows/ci.yml runs
	python -m compileall -q src
	$(MAKE) lint-schema
	$(MAKE) lint-src
	PYTHONPATH=src python -m pytest -x -q
	$(MAKE) analysis-check
	$(MAKE) obs-check
	$(MAKE) reorg-check
	$(MAKE) server-check
	$(MAKE) federation-check
	$(MAKE) query-check
	$(MAKE) bench-check
	$(MAKE) bench-gate

examples:
	@for ex in examples/*.py; do echo "== $$ex"; python $$ex > /dev/null && echo ok; done

results: ## regenerate test_output.txt and bench_output.txt
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results/*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +

# Convenience targets for the Cactis reproduction.

.PHONY: install test bench-check bench-gate examples ci lint-schema lint-src analysis-check obs-check server-check federation-check mem-report clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test: ## the tier-1 suite
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q

lint-schema: ## static analysis over every example and paper-figure schema
	PYTHONPATH=src python -m repro.analysis --strict --paper-figures \
		examples/schemas/milestones.cactis examples/schemas/very_late.cactis
	PYTHONPATH=src python -m repro.analysis --strict \
		--functions file_mod_time,system_command examples/schemas/make.cactis
	PYTHONPATH=src python -m repro.analysis --strict examples/schemas/project.cactis

lint-src: ## ruff over src/ when available (config in pyproject.toml)
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src; \
	else \
		echo "ruff not installed; falling back to a compile check"; \
		python -m compileall -q src; \
	fi

# The *-check targets hold only what the tier-1 suite (`make ci` runs it
# once) does not: CLI and live-server smokes.

analysis-check: ## --facts smoke over the paper figures
	PYTHONPATH=src python -m repro.analysis --strict --quiet --paper-figures \
		--facts /tmp/analysis-facts.json
	PYTHONPATH=src python -c "import json; d = json.load(open('/tmp/analysis-facts.json')); assert d, 'empty facts dump'; print('facts units:', ', '.join(sorted(d)))"
	rm -f /tmp/analysis-facts.json

obs-check: ## CLI smoke on a recorded trace
	PYTHONPATH=src python -m repro.obs demo --trace /tmp/obs-check.jsonl > /dev/null
	PYTHONPATH=src python -m repro.obs summarize /tmp/obs-check.jsonl
	rm -f /tmp/obs-check.jsonl

server-check: ## live server smoke (start, drive 8 clients, clean shutdown)
	PYTHONPATH=src python -m repro.server --smoke

federation-check: ## 4-site placement smoke
	PYTHONPATH=src python -m repro.distributed --smoke

# PROJECTS=50 (10 000 instances) is the size docs/STORAGE.md's table uses;
# CI runs a small one.
PROJECTS ?= 50

mem-report: ## tracemalloc census of a generated sum-node load, bytes/instance by allocation site
	PYTHONPATH=src python tools/mem_report.py --projects $(PROJECTS)

bench-check: ## the end-to-end harness's own quick traced pass (bench/trace.py wrappers resolve)
	python3 -m pytest bench -q

# The ref bench-gate measures against: the parent commit (CI checks out two
# commits deep, so on a pull request that is the base branch's tip).
# Override with `make bench-gate BASE=<git ref>`.
BASE ?= HEAD~1

bench-gate: ## the two in-process workloads on BASE and on this tree: counters identical, end-to-end within bounds
	@set -e; tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	for w in embed_wave embed_query_churn; do \
		(cd "$$tmp/base" && python3 -m bench run --workload $$w --history "$$tmp/base.jsonl" >/dev/null); \
		python3 -m bench run --workload $$w --history "$$tmp/head.jsonl" >/dev/null; \
	done; \
	python3 -m bench compare "$$tmp/base.jsonl" "$$tmp/head.jsonl" | tee "$$tmp/verdict.txt"; \
	! grep -E "REGRESSION|CHANGED" "$$tmp/verdict.txt"

ci: ## what .github/workflows/ci.yml runs
	python -m compileall -q src
	$(MAKE) lint-schema
	$(MAKE) lint-src
	PYTHONPATH=src python -m pytest -x -q
	$(MAKE) analysis-check
	$(MAKE) obs-check
	$(MAKE) server-check
	$(MAKE) federation-check
	$(MAKE) mem-report PROJECTS=5
	$(MAKE) examples
	$(MAKE) bench-check
	$(MAKE) bench-gate

examples: ## every example scenario runs to completion
	@set -e; for ex in examples/*.py; do echo "== $$ex"; PYTHONPATH=src python $$ex > /dev/null; echo ok; done

clean:
	rm -rf .pytest_cache .hypothesis bench/out
	find . -name __pycache__ -type d -exec rm -rf {} +

# Developer entry points. Every target is a thin alias for `python -m ci`,
# so `make <target>` and GitHub Actions always agree on what "passing" means.

PYTHON ?= python

.PHONY: help lint fix docs test test-full examples figures bench chaos overload telemetry restore shard transport perf determinism ci ci-fast

help:
	@echo "make lint         - stdlib AST lint (python -m ci lint)"
	@echo "make fix          - lint with whitespace auto-fix"
	@echo "make docs         - docs/README cross-reference check"
	@echo "make test         - fast pytest lane (-m 'not slow')"
	@echo "make test-full    - entire pytest suite"
	@echo "make examples     - run every example in quick mode"
	@echo "make figures      - regenerate every paper table/figure"
	@echo "make bench        - repo benchmark tests (--quick workload runs)"
	@echo "make chaos        - fault-injection scenarios + invariants"
	@echo "make overload     - overload/brownout scenarios double-run + demo"
	@echo "make telemetry    - trace-fingerprint double-run + neutrality gate"
	@echo "make restore      - SIGKILL/resume identity + corrupt-file rejection"
	@echo "make shard        - shard-count invariance + worker-kill recovery"
	@echo "make transport    - lossy-transport invariance + coordinator resume"
	@echo "make perf         - benchmark regression check + fingerprint guard"
	@echo "make determinism  - seeded double-run equality gate"
	@echo "make ci           - the full merge gate"
	@echo "make ci-fast      - lint + docs + fast tests + determinism"

lint:
	$(PYTHON) -m ci lint

fix:
	$(PYTHON) -m ci lint --fix

docs:
	$(PYTHON) -m ci docs

test:
	$(PYTHON) -m ci test

test-full:
	$(PYTHON) -m ci test --full

examples:
	$(PYTHON) -m ci examples

figures:
	$(PYTHON) -m ci figures

bench:
	$(PYTHON) -m ci bench

chaos:
	$(PYTHON) -m ci chaos

overload:
	$(PYTHON) -m ci overload

telemetry:
	$(PYTHON) -m ci telemetry

restore:
	$(PYTHON) -m ci restore

shard:
	$(PYTHON) -m ci shard

transport:
	$(PYTHON) -m ci transport

perf:
	$(PYTHON) -m ci perf

determinism:
	$(PYTHON) -m ci determinism

ci:
	$(PYTHON) -m ci all

ci-fast:
	$(PYTHON) -m ci all --fast

# Developer entry points.  Everything runs from the repo root with the
# in-tree sources (PYTHONPATH=src), no install step needed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test slow serve loc

## tier-1 test suite (the CI gate)
test:
	$(PYTHON) -m pytest -x -q

## the opt-in tier: soaks, tests/test_system.py, tests/test_paper_scale.py
slow:
	$(PYTHON) -m pytest -q -m slow

## run the always-on experiment service (see SERVING.md)
serve:
	$(PYTHON) -m repro serve

## what every simplicity PR reports: lines under src/repro, the
## REPRO_* environment variables src/ reads, and the settable values
## (parameters with a default on public functions and methods and on
## __init__s under src/repro).  tests/test_settable_values.py fails on
## one that no call in src/ or benchmarks/ledger/ sets: tests and
## examples do not set a value (its ALLOWLIST lists the exceptions,
## test seams and the §3.2 pulse parameters among them)
loc:
	@find src/repro -name '*.py' | xargs cat | wc -l
	@grep -rhoE 'REPRO_[A-Z_]+' src/repro --include='*.py' | sort -u
	@PYTHONPATH=tests $(PYTHON) -c "from pathlib import Path; \
		from test_settable_values import settable_values; \
		print(len(settable_values(Path('src/repro'))), 'settable values')"

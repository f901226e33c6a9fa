# Developer entry points.  Everything runs from the repo root with the
# in-tree sources (PYTHONPATH=src), no install step needed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-quick serve serve-smoke

## tier-1 test suite (the CI gate)
test:
	$(PYTHON) -m pytest -x -q

## full paper-scale benchmark suite (minutes; add -s to stream reports)
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

## quick perf smoke: timing-disabled core benches
bench-quick:
	REPRO_BENCH_SCALE=small $(PYTHON) -m pytest \
		benchmarks/bench_perf_core.py benchmarks/bench_parallel.py \
		--benchmark-disable -q

## run the always-on experiment service (see SERVING.md)
serve:
	$(PYTHON) -m repro serve

## end-to-end service smoke: submit over HTTP, cache hit, clean drain
serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py

# Developer entry points for the APICHECKER reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke examples record clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-smoke:
	REPRO_SCALE=smoke $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/market_vetting_day.py
	$(PYTHON) examples/feature_engineering.py
	$(PYTHON) examples/evasion_study.py
	$(PYTHON) examples/model_evolution.py

# The deliverable transcript files referenced from EXPERIMENTS.md.
record:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +

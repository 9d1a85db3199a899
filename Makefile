PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: ci test test-parity test-serve-repeat \
	bench-smoke bench-hot-path bench-hot-path-smoke \
	bench-spatial bench-spatial-smoke \
	bench-serving bench-serving-smoke bench-serving-proc-smoke \
	bench-sharding bench-sharding-smoke \
	bench-resilience bench-resilience-smoke examples-smoke \
	bench-e2e-smoke bench-check src-lines

# Tier-1 gate: full unit suite, ~10-second smokes of the Fig. 7 efficiency
# benchmark, the traced-vs-eager hot path, the spatial kernel, the serving
# engine and the fault-storm resilience harness (catch hot-path and serving
# regressions that unit tests miss; each records its JSON trajectory per
# PR), plus the runnable examples (quickstart, online forecasting, serving
# demo, compiled execution, resilience demo) as end-to-end smokes of the
# public API surface, and the repo benchmark (benchmarks/e2e) at 1/10 size
# with its correctness checks.  It starts by printing the src/ line count.
ci: src-lines test bench-smoke bench-hot-path-smoke bench-spatial-smoke \
	bench-serving-smoke bench-serving-proc-smoke bench-sharding-smoke \
	bench-resilience-smoke examples-smoke bench-e2e-smoke

test:
	$(PYTHON) -m pytest tests -x -q

# Total lines of library Python under src/, the size metric ROADMAP tracks.
src-lines:
	@printf 'src/**/*.py lines: %s\n' "$$(find src -name '*.py' -exec cat {} + | wc -l)"

# Bit-parity suites under one and two BLAS threads: threading changes how
# OpenBLAS splits a gemm's rows, so the exactness envelope is checked at both
# (CI runs one value per matrix job: `make test-parity BLAS_THREADS=2`).
# test_trace.py adds replay == eager, a replay from a NaN-filled arena pool
# == eager (TestArenaBytes::test_nan_filled_pool_replays_bit_identical) and
# the training step == the backward that keeps the whole graph; the pool's
# no-overlap and size tests are not BLAS-dependent and run in tier-1;
# test_batch_buckets.py adds every batch size 1-17 of every ZOO model and
# URCL, f32 and f64, replaying its power-of-two bucket == the eager forward;
# test_serialize.py adds a dumped and reloaded recurrent structure replaying
# == eager; test_op_table.py pins every op-table entry's eager bits to its
# reference and its one-op replay, dumped and reloaded, to eager;
# test_engine_conformance.py adds served == direct on both transports before
# and after an update is published (the thread engine's serving replica and
# the process engine's worker models each replay against the trained model);
# test_metrics_and_evaluation.py adds evaluation metrics (eager forward) ==
# the metrics of the compiled predict on the same windows.
BLAS_THREADS ?= 1 2

test-parity:
	for threads in $(BLAS_THREADS); do \
		OPENBLAS_NUM_THREADS=$$threads $(PYTHON) -m pytest \
			tests/tensor/test_partition_kernels.py tests/tensor/test_trace.py \
			tests/tensor/test_batch_buckets.py \
			tests/tensor/test_serialize.py tests/tensor/test_op_table.py \
			tests/serve/test_partition_parity.py tests/serve/test_sharding.py \
			tests/serve/test_engine.py tests/serve/test_engine_conformance.py \
			tests/core/test_metrics_and_evaluation.py \
			-k "parity or identical or bit" -x -q || exit 1; \
	done

# Flake hunt for the engine lifecycle suites (both transports; add
# REPRO_PROC_START_METHOD=spawn for the stricter start method): N passes,
# stopping at the first failure.  Not part of `ci`.
N ?= 10

test-serve-repeat:
	for pass in $$(seq 1 $(N)); do \
		echo "== pass $$pass of $(N)"; \
		$(PYTHON) -m pytest tests/serve/test_engine.py \
			tests/serve/test_engine_conformance.py \
			tests/serve/test_resilience.py -x -q || exit 1; \
	done

# End-to-end smokes of the documented workflows: continual training via the
# quickstart, the predict->update->save/load serving loop, the async
# multi-tenant engine with concurrent predict + online update, the
# traced-vs-eager capture/replay walkthrough (asserts bit-parity), and the
# fault-injection / graceful-degradation walkthrough.
examples-smoke:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/online_forecasting.py
	$(PYTHON) examples/serving_demo.py
	$(PYTHON) examples/compiled_execution.py
	$(PYTHON) examples/resilience_demo.py

bench-smoke:
	REPRO_BENCH_SCALE=smoke $(PYTHON) -m pytest benchmarks/bench_fig7_efficiency.py -x -q

# Full hot-path measurement (traced vs eager steps/sec, eval windows/sec,
# compiled-loop throughput, f32/f64 parity); appends to
# benchmarks/results/BENCH_hot_path.json.
bench-hot-path:
	$(PYTHON) benchmarks/bench_hot_path.py

# Fast traced-vs-eager smoke: asserts capture/replay stays bit-identical to
# eager on a real training loop without the full sweep.
bench-hot-path-smoke:
	$(PYTHON) benchmarks/bench_hot_path.py --scale smoke --steps 4 --skip-parity

# Spatial-kernel sweep (CSR vs dense across node counts and densities);
# appends to benchmarks/results/BENCH_spatial.json.
bench-spatial:
	$(PYTHON) benchmarks/bench_spatial.py

bench-spatial-smoke:
	$(PYTHON) benchmarks/bench_spatial.py --scale smoke

# Serving-engine sweep (dynamic batching x tenants x node shards, closed
# loop); appends to benchmarks/results/BENCH_serving.json and asserts the
# batched/sharded engine serves bit-identical predictions.
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

bench-serving-smoke:
	$(PYTHON) benchmarks/bench_serving.py --scale smoke --engine thread

# Process-engine smoke: shared-memory worker processes, per-run output
# asserted bit-identical to direct predict and to the in-process engine.
bench-serving-proc-smoke:
	$(PYTHON) benchmarks/bench_serving.py --scale smoke --engine process

# Memory-sharded partition forward: bit-parity at K in {2,4}, the min-cut
# plan cutting fewer edge pairs than identity-order node ranges, and
# per-shard peak activation within the owned+halo bound (N=50k at bench
# scale).
bench-sharding:
	$(PYTHON) benchmarks/bench_serving.py --engine sharding

bench-sharding-smoke:
	$(PYTHON) benchmarks/bench_serving.py --scale smoke --engine sharding

# Resilience harness (clean vs seeded fault-storm closed loops, recovery
# time); appends to benchmarks/results/BENCH_resilience.json and asserts
# retry bit-parity, zero lost futures and post-storm recovery.
bench-resilience:
	$(PYTHON) benchmarks/bench_resilience.py

bench-resilience-smoke:
	$(PYTHON) benchmarks/bench_resilience.py --scale smoke

# The repo benchmark (BENCHMARK.json; see benchmarks/e2e/README.md): all five
# workloads at 1/10 size, failing on any correctness check.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

# Compare two result files written by `benchmarks/e2e/run.py --reps N --out`:
# `make bench-check A=parent.json B=change.json`; exits 1 on a `worse` row.
bench-check:
	$(PYTHON) benchmarks/e2e/compare.py $(A) $(B)

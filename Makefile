# Developer entry points.  All targets run from the repository root and use
# the src layout directly (no install step needed).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench-smoke bench bench-cache bench-kernels bench-service bench-sweep cache-smoke fuzz-smoke fuzz-hetero-smoke workload-smoke shard-smoke serve-smoke serve-repeat sweep-smoke sweep-demo clean-results

## tier-1 verification: the full test suite, fail fast
test:
	$(PYTHON) -m pytest -x -q

## static checks (configuration in ruff.toml); CI runs this on every push
lint:
	ruff check src tests benchmarks examples setup.py

## fast benchmark pass: tiny sizes, one round each — asserts correctness of
## every figure/table driver and refreshes benchmarks/results/
bench-smoke:
	REPRO_BENCH_INSTANCES=4 REPRO_BENCH_THRESHOLDS=4 \
		$(PYTHON) -m pytest benchmarks -q -o python_files='bench_*.py' \
		--benchmark-disable
	$(PYTHON) benchmarks/bench_optimality_gap.py --smoke
	$(PYTHON) benchmarks/bench_kernel_speedup.py --smoke

## full benchmark suite (paper-scale sizing via REPRO_BENCH_* env knobs)
bench:
	$(PYTHON) -m pytest benchmarks -q -o python_files='bench_*.py'

## solve-cache throughput: warm-vs-cold solve_many on a repeated-instance
## workload (asserts >= 5x), refreshes benchmarks/results/cache_throughput.txt
bench-cache:
	$(PYTHON) -m pytest benchmarks/bench_cache_throughput.py -q \
		-o python_files='bench_*.py' --benchmark-disable

## compiled-kernel speedup gate: >= 5x on the DP tables vs numpy at paper
## scale, identical results, end-to-end sweep win; writes BENCH_kernels.json
bench-kernels:
	$(PYTHON) benchmarks/bench_kernel_speedup.py

## CI's cache smoke slice: run `cli batch` twice against one --cache-dir and
## assert the cold and warm stdout reports are byte-identical
cache-smoke:
	rm -rf .cache-smoke && mkdir -p .cache-smoke
	$(PYTHON) -m repro.cli batch --family E1 --stages 8 --processors 6 \
		--instances 10 --repeat 2 --period 12 --latency 60 \
		--cache-dir .cache-smoke/store > .cache-smoke/cold.txt
	$(PYTHON) -m repro.cli batch --family E1 --stages 8 --processors 6 \
		--instances 10 --repeat 2 --period 12 --latency 60 \
		--cache-dir .cache-smoke/store > .cache-smoke/warm.txt
	cmp .cache-smoke/cold.txt .cache-smoke/warm.txt
	rm -rf .cache-smoke

## fast differential-verification slice; CI's PR gate runs exactly this
## target (the nightly job runs the same command with --count 2000) and
## uploads anything written to fuzz-counterexamples/ as an artifact.  The
## stream runs three times: on the default kernels (the compiled engine
## wherever it validated), under REPRO_KERNELS_DISABLE=all (numpy, as on a
## host without a compiler) and on a 2-worker pool (instance tables built
## inside the workers); the three stdout reports must be byte-identical
fuzz-smoke:
	rm -rf .fuzz-smoke && mkdir -p .fuzz-smoke
	$(PYTHON) -m repro.cli fuzz --count 100 --seed 0 --corpus fuzz-counterexamples \
		> .fuzz-smoke/default.txt || { cat .fuzz-smoke/default.txt; exit 1; }
	cat .fuzz-smoke/default.txt
	REPRO_KERNELS_DISABLE=all $(PYTHON) -m repro.cli fuzz --count 100 --seed 0 \
		--corpus fuzz-counterexamples \
		> .fuzz-smoke/numpy.txt || { cat .fuzz-smoke/numpy.txt; exit 1; }
	cmp .fuzz-smoke/default.txt .fuzz-smoke/numpy.txt
	$(PYTHON) -m repro.cli fuzz --count 100 --seed 0 --workers 2 \
		--corpus fuzz-counterexamples \
		> .fuzz-smoke/pooled.txt || { cat .fuzz-smoke/pooled.txt; exit 1; }
	cmp .fuzz-smoke/default.txt .fuzz-smoke/pooled.txt
	rm -rf .fuzz-smoke

## heterogeneous-only fuzz slice: glob family selection, exercises the
## anytime local-search invariants on every instance small enough for them
## and X1 (Hetero Sp P) on per-link bandwidths; like fuzz-smoke, the stream
## also runs under REPRO_KERNELS_DISABLE=all and on a 2-worker pool, and the
## three stdout reports must be byte-identical
fuzz-hetero-smoke:
	rm -rf .fuzz-hetero-smoke && mkdir -p .fuzz-hetero-smoke
	$(PYTHON) -m repro.cli fuzz --families 'heterogeneous*' --count 200 \
		--seed 0 --corpus fuzz-counterexamples \
		> .fuzz-hetero-smoke/default.txt || { cat .fuzz-hetero-smoke/default.txt; exit 1; }
	cat .fuzz-hetero-smoke/default.txt
	REPRO_KERNELS_DISABLE=all $(PYTHON) -m repro.cli fuzz --families 'heterogeneous*' \
		--count 200 --seed 0 --corpus fuzz-counterexamples \
		> .fuzz-hetero-smoke/numpy.txt || { cat .fuzz-hetero-smoke/numpy.txt; exit 1; }
	cmp .fuzz-hetero-smoke/default.txt .fuzz-hetero-smoke/numpy.txt
	$(PYTHON) -m repro.cli fuzz --families 'heterogeneous*' --count 200 \
		--seed 0 --workers 2 --corpus fuzz-counterexamples \
		> .fuzz-hetero-smoke/pooled.txt || { cat .fuzz-hetero-smoke/pooled.txt; exit 1; }
	cmp .fuzz-hetero-smoke/default.txt .fuzz-hetero-smoke/pooled.txt
	rm -rf .fuzz-hetero-smoke

## CI's resume smoke slice: run a spec, interrupt it halfway via the
## --max-tasks cap (exit 3), resume it with --resume, and assert the final
## report is byte-identical to an uninterrupted run
workload-smoke:
	rm -rf .workload-smoke && mkdir -p .workload-smoke
	$(PYTHON) -m repro.cli run examples/workload_smoke.json \
		--journal .workload-smoke/journal.jsonl --max-tasks 17 \
		> .workload-smoke/partial.txt; rc=$$?; test $$rc -eq 3
	$(PYTHON) -m repro.cli run examples/workload_smoke.json \
		--journal .workload-smoke/journal.jsonl --resume \
		--sink .workload-smoke/resumed.jsonl \
		> .workload-smoke/resumed.txt
	$(PYTHON) -m repro.cli run examples/workload_smoke.json \
		--sink .workload-smoke/fresh.jsonl \
		> .workload-smoke/fresh.txt
	cmp .workload-smoke/resumed.txt .workload-smoke/fresh.txt
	cmp .workload-smoke/resumed.jsonl .workload-smoke/fresh.jsonl
	rm -rf .workload-smoke

## CI's shard smoke slice: run a spec as 3 independent shards against one
## shared --cache-dir (each exits 3: shard done, run incomplete), fold the
## shard journals with merge-journals, replay the merged journal with
## --resume, and assert the final report is byte-identical to a whole run
shard-smoke:
	rm -rf .shard-smoke && mkdir -p .shard-smoke
	for i in 0 1 2; do \
		$(PYTHON) -m repro.cli run examples/workload_smoke.json \
			--journal .shard-smoke/shard$$i.jsonl --shard $$i/3 \
			--cache-dir .shard-smoke/cache \
			> .shard-smoke/shard$$i.txt; rc=$$?; \
		test $$rc -eq 3 || exit 1; \
	done
	$(PYTHON) -m repro.cli merge-journals .shard-smoke/shard0.jsonl \
		.shard-smoke/shard1.jsonl .shard-smoke/shard2.jsonl \
		--output .shard-smoke/merged.jsonl
	$(PYTHON) -m repro.cli run examples/workload_smoke.json \
		--journal .shard-smoke/merged.jsonl --resume \
		--sink .shard-smoke/merged.jsonl.rows.jsonl \
		> .shard-smoke/merged.txt
	$(PYTHON) -m repro.cli run examples/workload_smoke.json \
		--sink .shard-smoke/whole.jsonl.rows.jsonl \
		> .shard-smoke/whole.txt
	cmp .shard-smoke/merged.txt .shard-smoke/whole.txt
	cmp .shard-smoke/merged.jsonl.rows.jsonl .shard-smoke/whole.jsonl.rows.jsonl
	rm -rf .shard-smoke

## solver-daemon latency gate: warm daemon >= 5x over per-request CLI on a
## Zipf-repeated mix, byte-identical answers; writes BENCH_service.json
bench-service:
	$(PYTHON) benchmarks/bench_service_latency.py

## frontier-sweep amortisation gate: one frontier solve per (instance,
## solver) answers a 10-threshold sweep >= 5x faster than per-threshold
## solving, identical curves; writes BENCH_sweep.json
bench-sweep:
	$(PYTHON) benchmarks/bench_sweep_frontier.py

## CI's solver-daemon smoke slice: start `serve` in the background, run the
## same batch twice through `batch --server`, assert the two stdout reports
## are byte-identical and the second pass hit the daemon's warm cache, then
## SIGTERM the daemon and require a clean (drained) exit 0; then run the
## batch once more through a second daemon with a 2-worker pool (instances
## ship to its workers through an instance arena) and assert its report is
## byte-identical to the serial daemon's cold one, with a clean drain too;
## last, a disk-backed leg: run the batch through `serve --cache-dir`,
## SIGTERM it, restart a daemon on the same directory and run the batch
## again, `cmp` both reports against the cold one, and require the restarted
## daemon to have served disk hits (the one kind of hit that still goes
## through the coalescer, so its file I/O stays off the event loop)
serve-smoke:
	rm -rf .serve-smoke && mkdir -p .serve-smoke
	set -e; \
	$(PYTHON) -m repro.cli serve --socket .serve-smoke/daemon.sock \
		2> .serve-smoke/serve.log & SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null || true' EXIT; \
	$(PYTHON) -m repro.cli client ping --socket .serve-smoke/daemon.sock \
		--wait 30 > /dev/null; \
	$(PYTHON) -m repro.cli batch --family E1 --stages 8 --processors 6 \
		--instances 10 --repeat 2 --period 12 --latency 60 \
		--server .serve-smoke/daemon.sock > .serve-smoke/cold.txt; \
	$(PYTHON) -m repro.cli batch --family E1 --stages 8 --processors 6 \
		--instances 10 --repeat 2 --period 12 --latency 60 \
		--server .serve-smoke/daemon.sock > .serve-smoke/warm.txt; \
	cmp .serve-smoke/cold.txt .serve-smoke/warm.txt; \
	$(PYTHON) -m repro.cli client stats --socket .serve-smoke/daemon.sock \
		| $(PYTHON) -c "import json,sys; s=json.load(sys.stdin); \
			assert s['cache']['hit_rate'] > 0, s['cache']; \
			print('daemon cache hit rate:', s['cache']['hit_rate'])"; \
	kill -TERM $$SRV; rc=0; wait $$SRV || rc=$$?; trap - EXIT; \
	test $$rc -eq 0 || { echo "daemon exited $$rc (want 0)"; cat .serve-smoke/serve.log; exit 1; }
	set -e; \
	$(PYTHON) -m repro.cli serve --socket .serve-smoke/pooled.sock --workers 2 \
		2> .serve-smoke/pooled.log & SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null || true' EXIT; \
	$(PYTHON) -m repro.cli client ping --socket .serve-smoke/pooled.sock \
		--wait 30 > /dev/null; \
	$(PYTHON) -m repro.cli batch --family E1 --stages 8 --processors 6 \
		--instances 10 --repeat 2 --period 12 --latency 60 \
		--server .serve-smoke/pooled.sock > .serve-smoke/pooled.txt; \
	cmp .serve-smoke/cold.txt .serve-smoke/pooled.txt; \
	kill -TERM $$SRV; rc=0; wait $$SRV || rc=$$?; trap - EXIT; \
	test $$rc -eq 0 || { echo "pooled daemon exited $$rc (want 0)"; cat .serve-smoke/pooled.log; exit 1; }
	set -e; \
	for leg in disk-cold disk-warm; do \
		$(PYTHON) -m repro.cli serve --socket .serve-smoke/disk.sock \
			--cache-dir .serve-smoke/cache 2> .serve-smoke/$$leg.log & SRV=$$!; \
		trap 'kill $$SRV 2>/dev/null || true' EXIT; \
		$(PYTHON) -m repro.cli client ping --socket .serve-smoke/disk.sock \
			--wait 30 > /dev/null; \
		$(PYTHON) -m repro.cli batch --family E1 --stages 8 --processors 6 \
			--instances 10 --repeat 2 --period 12 --latency 60 \
			--server .serve-smoke/disk.sock > .serve-smoke/$$leg.txt; \
		cmp .serve-smoke/cold.txt .serve-smoke/$$leg.txt; \
		$(PYTHON) -m repro.cli client stats --socket .serve-smoke/disk.sock \
			> .serve-smoke/$$leg.stats.json; \
		kill -TERM $$SRV; rc=0; wait $$SRV || rc=$$?; trap - EXIT; \
		test $$rc -eq 0 || { echo "$$leg daemon exited $$rc (want 0)"; cat .serve-smoke/$$leg.log; exit 1; }; \
	done; \
	$(PYTHON) -c "import json; s=json.load(open('.serve-smoke/disk-warm.stats.json')); \
		assert s['cache']['disk_hits'] > 0, s['cache']; \
		print('restarted daemon disk hits:', s['cache']['disk_hits'])"
	rm -rf .serve-smoke

## CI's daemon determinism slice: run the coalescer, daemon and worker-fault
## tests 5 times in a row and fail on the first red run (they hold work
## pending with gated solvers, never with timers, so every run must agree)
serve-repeat:
	for i in 1 2 3 4 5; do \
		$(PYTHON) -m pytest -q tests/test_coalescer.py \
			tests/test_server_daemon.py tests/test_worker_faults.py \
			|| { echo "serve-repeat: run $$i of 5 failed"; exit 1; }; \
	done

## CI's frontier smoke slice: run one sweep per-threshold (--no-frontier),
## frontier-routed (--frontier) and frontier-routed on 2 workers, and assert
## the three stdout reports are byte-identical — the frontier layer may only
## change the wall clock, and so may split tables and trajectory tries
## (shared across the whole batch when serial, built inside each pool
## worker otherwise); a second, deeper panel (n=40, p=20) runs the 2-way
## tries many splits deep, a third (E3, n=40, p=100) the 3-way tries
## of H2/H3, and a fourth (E1, n=120, p=12) 3-way splits of thousands of
## candidates each
sweep-smoke:
	rm -rf .sweep-smoke && mkdir -p .sweep-smoke
	$(PYTHON) -m repro.cli sweep --family E1 --stages 12 --processors 6 \
		--instances 4 --thresholds 6 --no-frontier > .sweep-smoke/direct.txt
	$(PYTHON) -m repro.cli sweep --family E1 --stages 12 --processors 6 \
		--instances 4 --thresholds 6 --frontier > .sweep-smoke/frontier.txt
	$(PYTHON) -m repro.cli sweep --family E1 --stages 12 --processors 6 \
		--instances 4 --thresholds 6 --frontier --workers 2 \
		> .sweep-smoke/pooled.txt
	cmp .sweep-smoke/direct.txt .sweep-smoke/frontier.txt
	cmp .sweep-smoke/frontier.txt .sweep-smoke/pooled.txt
	$(PYTHON) -m repro.cli sweep --family E2 --stages 40 --processors 20 \
		--instances 4 --thresholds 6 --no-frontier > .sweep-smoke/deep-direct.txt
	$(PYTHON) -m repro.cli sweep --family E2 --stages 40 --processors 20 \
		--instances 4 --thresholds 6 --frontier > .sweep-smoke/deep-frontier.txt
	$(PYTHON) -m repro.cli sweep --family E2 --stages 40 --processors 20 \
		--instances 4 --thresholds 6 --frontier --workers 2 \
		> .sweep-smoke/deep-pooled.txt
	cmp .sweep-smoke/deep-direct.txt .sweep-smoke/deep-frontier.txt
	cmp .sweep-smoke/deep-frontier.txt .sweep-smoke/deep-pooled.txt
	$(PYTHON) -m repro.cli sweep --family E3 --stages 40 --processors 100 \
		--instances 4 --thresholds 6 --no-frontier > .sweep-smoke/wide-direct.txt
	$(PYTHON) -m repro.cli sweep --family E3 --stages 40 --processors 100 \
		--instances 4 --thresholds 6 --frontier > .sweep-smoke/wide-frontier.txt
	$(PYTHON) -m repro.cli sweep --family E3 --stages 40 --processors 100 \
		--instances 4 --thresholds 6 --frontier --workers 2 \
		> .sweep-smoke/wide-pooled.txt
	cmp .sweep-smoke/wide-direct.txt .sweep-smoke/wide-frontier.txt
	cmp .sweep-smoke/wide-frontier.txt .sweep-smoke/wide-pooled.txt
	$(PYTHON) -m repro.cli sweep --family E1 --stages 120 --processors 12 \
		--instances 2 --thresholds 6 --no-frontier > .sweep-smoke/long-direct.txt
	$(PYTHON) -m repro.cli sweep --family E1 --stages 120 --processors 12 \
		--instances 2 --thresholds 6 --frontier > .sweep-smoke/long-frontier.txt
	$(PYTHON) -m repro.cli sweep --family E1 --stages 120 --processors 12 \
		--instances 2 --thresholds 6 --frontier --workers 2 \
		> .sweep-smoke/long-pooled.txt
	cmp .sweep-smoke/long-direct.txt .sweep-smoke/long-frontier.txt
	cmp .sweep-smoke/long-frontier.txt .sweep-smoke/long-pooled.txt
	rm -rf .sweep-smoke

## one parallel figure panel end to end (smoke test of the --workers path)
sweep-demo:
	$(PYTHON) -m repro.cli sweep --family E1 --stages 10 --processors 10 \
		--instances 5 --thresholds 5 --workers -1

clean-results:
	rm -rf benchmarks/results

# Same gates CI runs (.github/workflows/ci.yml), for humans.

GO ?= go

.PHONY: all build test bench bench-json bench-prefix-json bench-batch-json bench-memostack-json bench-cluster-json bench-store-json lint fmt serve loadgen metrics-smoke api-golden docs-check

all: build lint test

build:
	$(GO) build ./...

# The second line mirrors CI's "Benchmark module" step: spmbench is its
# own module, which the root ./... skips.
test:
	$(GO) test -race ./...
	cd spmbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# One iteration of every benchmark: a smoke run proving they still execute.
# For real measurements: go test -bench <pattern> -benchtime 5s .
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The same artifact CI's bench job uploads: Sweep/Compile/Service
# benchmarks, 3 runs each, averaged into BENCH_sweep.json. Two steps, not
# a pipe, so a failing benchmark run fails the target.
bench-json:
	$(GO) test -bench 'Sweep|Compile|Service' -benchmem -count 3 -run '^$$' ./... > bench.txt
	$(GO) run ./cmd/benchjson < bench.txt > BENCH_sweep.json
	@echo wrote BENCH_sweep.json

# The prefix-memoization perf-trajectory artifact: plain compiled RunReuse
# vs the snapshot-memoized innermost axis over the 160k-tuple sweep,
# averaged like bench-json.
bench-prefix-json:
	$(GO) test -bench 'PrefixMemoSweep' -benchmem -count 3 -run '^$$' . > bench_prefix.txt
	$(GO) run ./cmd/benchjson < bench_prefix.txt > BENCH_prefix.json
	@echo wrote BENCH_prefix.json

# The batch-tier perf-trajectory artifact: the memoized sweep on one-lane
# strides vs strides of 8 and 32 lanes, 1 and 8 workers, over the
# 160k-tuple sweep, averaged like bench-json.
bench-batch-json:
	$(GO) test -bench 'BatchSweep' -benchmem -count 3 -run '^$$' . > bench_batch.txt
	$(GO) run ./cmd/benchjson < bench_batch.txt > BENCH_batch.json
	@echo wrote BENCH_batch.json

# The snapshot-stack perf-trajectory artifact: the stack tier vs no
# memoization on a deep five-axis 32k-tuple domain whose cost
# concentrates in the outer axes, averaged like bench-json.
bench-memostack-json:
	$(GO) test -bench 'SnapshotStack' -benchmem -count 3 -run '^$$' . > bench_memostack.txt
	$(GO) run ./cmd/benchjson < bench_memostack.txt > BENCH_memostack.json
	@echo wrote BENCH_memostack.json

# The cluster perf-trajectory artifact: 1-node vs 2-node in-process fleet
# over a 160k-tuple sweep, plus the straggler scenario (one throttled
# node) with stealing and speculation off and on, averaged like
# bench-json.
bench-cluster-json:
	$(GO) test -bench 'Cluster' -benchmem -count 3 -run '^$$' ./internal/cluster/ > bench_cluster.txt
	$(GO) run ./cmd/benchjson < bench_cluster.txt > BENCH_cluster.json
	@echo wrote BENCH_cluster.json

# The verdict-store perf-trajectory artifact: the same 160k-tuple
# submission cold (full sweep), as a verdict-store hit (answered from
# disk), and resumed from a mid-sweep checkpoint, averaged like
# bench-json.
bench-store-json:
	$(GO) test -bench 'Store' -benchmem -count 3 -run '^$$' ./internal/service/ > bench_store.txt
	$(GO) run ./cmd/benchjson < bench_store.txt > BENCH_store.json
	@echo wrote BENCH_store.json

# Run the policy-checking service locally (see README for the curl
# quickstart) and fire the closed-loop load generator at it.
serve:
	$(GO) run ./cmd/spm serve -addr :8135

loadgen:
	$(GO) run ./cmd/spm loadgen -addr http://127.0.0.1:8135

# The same metrics gate CI's test job runs: a served node with -pprof on,
# loadgen traffic, then one `spm top -once` snapshot — which fetches
# GET /v2/metrics and validates the exposition with the internal/obs
# parser before rendering — plus raw-exposition and pprof probes.
metrics-smoke:
	$(GO) build -o /tmp/spm-metrics-smoke ./cmd/spm
	@set -e; \
	/tmp/spm-metrics-smoke serve -addr 127.0.0.1:8148 -runners 2 -pprof & \
	PID=$$!; \
	trap 'kill $$PID 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:8148/v2/stats >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	/tmp/spm-metrics-smoke loadgen -addr http://127.0.0.1:8148 -n 32 -c 8; \
	/tmp/spm-metrics-smoke top -addr http://127.0.0.1:8148 -once; \
	curl -fsS http://127.0.0.1:8148/v2/metrics | grep -q '^spm_jobs_done_total'; \
	curl -fsS http://127.0.0.1:8148/debug/pprof/cmdline >/dev/null; \
	echo "metrics smoke ok"

lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -s -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -s needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	@for pkg in check store obs service; do \
		if ! $(GO) doc -all ./internal/$$pkg | diff -u internal/$$pkg/api.golden -; then \
			echo "internal/$$pkg API surface drifted from api.golden — run 'make api-golden' and commit the result" >&2; \
			exit 1; \
		fi; \
	done

# The same docs gate CI's docs job runs: internal links in
# README.md/DESIGN.md/doc.go must resolve, and the godoc Example
# functions must run.
docs-check:
	$(GO) run ./cmd/linkcheck README.md DESIGN.md doc.go
	$(GO) test -run 'Example' ./internal/check ./internal/flowchart ./internal/service

# Regenerate the committed API surfaces (the unified check package, the
# persistence layer, the observability kit, and the service's wire types
# and config) after an intentional
# signature change; CI diffs the live `go doc` output against these
# goldens and fails on drift.
api-golden:
	$(GO) doc -all ./internal/check > internal/check/api.golden
	$(GO) doc -all ./internal/store > internal/store/api.golden
	$(GO) doc -all ./internal/obs > internal/obs/api.golden
	$(GO) doc -all ./internal/service > internal/service/api.golden

fmt:
	gofmt -s -w .

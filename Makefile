# Same gates CI runs (.github/workflows/ci.yml), for humans.

GO ?= go

.PHONY: all build test bench bench-json lint fmt serve loadgen metrics-smoke api-golden docs-check

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

# The perf trajectory CI's bench job uploads: each name:regex:path entry
# runs `go test -bench regex -count 3 path` into bench_<name>.txt and
# averages it into BENCH_<name>.json. CI runs this target, so the list
# lives here alone; adding a trajectory is one line.
#   sweep     — compile + sweep + service core trajectory
#   batch     — one-lane strides vs widths 8/32, 1 and 8 workers, 160k tuples
#   memostack — the snapshot stack on a deep five-axis outer-heavy domain
#   cluster   — 1-node vs 2-node fleet, plus the straggler scenario (one
#               throttled node): steal/speculate off vs on
#   store     — cold sweep vs verdict-store hit vs mid-sweep resume
BENCH_MATRIX = \
	'sweep:Sweep|Compile|Service:./...' \
	'batch:BatchSweep:.' \
	'memostack:SnapshotStack:.' \
	'cluster:Cluster:./internal/cluster/' \
	'store:Store:./internal/service/'

# Two steps per entry, not a pipe, so a failing benchmark run fails the
# target.
bench-json:
	@set -e; for entry in $(BENCH_MATRIX); do \
		name=$${entry%%:*}; rest=$${entry#*:}; regex=$${rest%:*}; path=$${rest##*:}; \
		echo "== $$name: -bench '$$regex' $$path"; \
		$(GO) test -bench "$$regex" -benchmem -count 3 -run '^$$' "$$path" > "bench_$$name.txt"; \
		$(GO) run ./cmd/benchjson < "bench_$$name.txt" > "BENCH_$$name.json"; \
		echo "wrote BENCH_$$name.json"; \
	done

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

# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Stamp the binary with the git revision so `equitruss version` and the
# /healthz "revision" field identify the build even when the module was
# compiled outside a checkout (where debug.ReadBuildInfo has no vcs info).
REV ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS := -X equitruss/internal/buildinfo.revision=$(REV)

.PHONY: all build test race bench benchcheck repro examples ci serversmoke servermetrics chaos crashsafe coldstart clean

all: build test

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The gate every change must pass: vet (including the separate perfbench
# module, which `./...` does not reach, so a broken kernel signature fails
# here rather than at benchmark time), vulnerability scan (when the scanner
# is installed), build, full tests, the race-detector subset covering the
# shared-state hot spots (schedulers, the pipeline kernels, the query
# server), and the chaos suite.
ci: serversmoke servermetrics chaos crashsafe coldstart
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed — skipping vulnerability scan"; \
		echo "  (go install golang.org/x/vuln/cmd/govulncheck@latest to enable)"; \
	fi
	$(GO) build -ldflags '$(LDFLAGS)' ./...
	$(GO) test ./...
	$(GO) test -race ./internal/concur ./internal/triangle ./internal/truss ./internal/community ./internal/obs
	$(MAKE) benchcheck

# Perf regression gate: rerun the Support kernel sweep, the query-path
# workloads, the peel kernel sweep, the live-update applier sweep, and the
# cold-start loader sweep and compare each cell's time — normalized within
# the same run (Support kernels by merge, query engines by indexed-bfs, peel
# kernels by levelsync, update engines by full-rebuild, mmap loaders by
# v2-decode) so absolute machine speed cancels — against the committed
# baseline. Fails on a >20% normalized regression, and
# fails loudly when a baseline row is missing. Artifacts land in bench/
# (gitignored except the committed baseline + reference artifacts).
benchcheck:
	$(GO) run ./cmd/benchsuite -experiment support,query,peel,update,coldstart -scale 0.05 -out bench/ -check bench/baseline.json

# Race-enabled server smoke: 64 concurrent clients hammer one handler
# (httptest) mixing cached singles and pooled batches, answers checked
# against a precomputed oracle.
serversmoke:
	$(GO) test -race -run 'TestServerSmokeConcurrent|TestGracefulShutdownDrainsInflight' ./internal/server

# Race-enabled observability proof: concurrent mixed load against one
# handler with 1-in-1 sampling, then asserts /metrics exposes the latency
# histograms + runtime/instance gauges, /debug/requests retains stage
# traces, and the JSON log joins on request_id.
servermetrics:
	$(GO) test -race -run 'TestServerMetricsUnderLoad|TestErroredRequestRetainedAndLogged|TestHealthzRevision' ./internal/server

# Fault-injection and robustness proofs, all race-enabled: mid-build
# cancellation with goroutine-leak assertions, corrupt-index rejection,
# crash-safe saves, and the server surviving injected errors/panics/delays.
# See docs/ROBUSTNESS.md for the fault-site registry.
chaos:
	$(GO) test -race -run 'TestChaos' .
	$(GO) test -race ./internal/faults ./internal/server ./internal/graphio

# Crash-recovery drill, race-enabled: builds the real binary, streams
# durable /update batches at a live server, SIGKILLs it mid-stream,
# restarts over the same state directory, and differential-verifies the
# recovered state (canonical checksums from /healthz) against an
# independent in-process rebuild of the acked update prefix. Also runs the
# in-process durability suite (recovery, compaction, WAL poisoning).
crashsafe:
	EQUITRUSS_CRASHSAFE=1 $(GO) test -race -run 'TestCrashSafeKillMidStream|TestLive' .
	$(GO) test -race ./internal/wal ./internal/dynamic

# Cold-start drill, race-enabled: builds the real binary, writes a v3 index
# with `equitruss build -out`, serves it from a zero-copy mmap with
# lazy verification, SIGKILLs the server with the mapping live, restarts
# over the same file with eager verification, and differential-verifies both
# processes' serving checksums (from /healthz) against an independent
# in-process rebuild. Also runs the mmap/heap loader equivalence suite.
coldstart:
	EQUITRUSS_COLDSTART=1 $(GO) test -race -run 'TestColdstart' .
	$(GO) test -race ./internal/mmapio ./internal/graphio

# One benchmark per paper table/figure plus ablations (bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# Long-form reproduction of the paper's evaluation; writes plot-ready TSVs.
repro:
	$(GO) run ./cmd/benchsuite -experiment all -scale 0.25 -out results/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/proteins
	$(GO) run ./examples/kernelbreakdown
	$(GO) run ./examples/dynamicupdates

clean:
	rm -rf results/

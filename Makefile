GO ?= go

# Packages carrying the refresh-engine + broadcast + metrics + ingest + read
# benchmark suite.
BENCH_PKGS = ./internal/fft ./internal/acf ./internal/core ./internal/stream ./internal/server ./internal/obs ./internal/obs/trace
BENCH_PAT  = ^(BenchmarkRefresh|BenchmarkACFPlan|BenchmarkFFTPlan|BenchmarkIncrementalACF|BenchmarkPushBatchCoalesced|BenchmarkBroadcastFanout|BenchmarkMetricsHotPath|BenchmarkTraceHotPath|BenchmarkEvaluate|BenchmarkIngestHandler|BenchmarkReadHandlers)$$

# bench-gate knobs: fractional ns/op+B/op growth, absolute allocs/op
# growth, and absolute B/op slack allowed over the committed
# BENCH_refresh.json baseline.
BENCH_TOLERANCE   ?= 0.25
BENCH_ALLOC_DRIFT ?= 0
BENCH_BYTE_SLACK  ?= 1024
# auto = gate ns/op only on the baseline's own hardware; CI passes
# `never` because virtualized runners share generic CPU strings without
# sharing clocks. allocs/op and B/op gate everywhere regardless.
BENCH_TIME_GATE   ?= auto

.PHONY: check vet build test race alloc-check obs-check trace-check bench bench-smoke bench-gate fuzz fuzz-check perfbench-check failover-check stream-check chaos-check clean clean-data

## check: the standard verify — vet, build, and the race-enabled suite.
check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## alloc-check: the refresh-engine allocation-regression tests, run
## without the race detector so the counts reflect production builds.
alloc-check:
	$(GO) test -run 'Alloc' -v $(BENCH_PKGS)

## obs-check: the observability acceptance suite under -race — the obs
## registry and exposition format, the /metrics catalog golden file,
## request-ID correlation, self-monitor end to end, the pprof listener,
## and the instrumentation allocation contract.
obs-check:
	$(GO) test -race -v ./internal/obs/
	$(GO) test -race -run 'Metrics|RequestID|StatsAggregate|SelfMonitor|Pprof' -v ./internal/server/

## trace-check: the tracing acceptance suite under -race — the span /
## traceparent / tail-sampling unit tests, plus the server end-to-end
## pipeline trace (ingest spans, replication join, /traces explorer),
## exemplar exposition, and slow-request breakdown tests.
trace-check:
	$(GO) test -race -v ./internal/obs/trace/
	$(GO) test -race -run 'Trace|Exemplar|SlowRequest' -v ./internal/server/

## bench: run the refresh-engine benchmark suite and (re)write the
## committed baseline BENCH_refresh.json.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson | tee BENCH_refresh.json

## bench-smoke: one-iteration pass over the same benchmarks so the bench
## code cannot rot (used by CI; measures nothing).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchtime 1x $(BENCH_PKGS)

## bench-gate: the CI benchmark-regression gate. Reruns the suite and
## fails if any benchmark regressed against the committed baseline:
## allocs/op beyond BENCH_ALLOC_DRIFT always fail; ns/op beyond
## BENCH_TOLERANCE fails on the baseline's own hardware and is reported
## (not gated) elsewhere — CI runners don't share the baseline's clock.
## The fresh run lands in BENCH_fresh.json for artifact upload.
bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem $(BENCH_PKGS) > bench-fresh.txt
	$(GO) run ./cmd/benchjson -baseline BENCH_refresh.json \
		-tolerance $(BENCH_TOLERANCE) -alloc-drift $(BENCH_ALLOC_DRIFT) \
		-byte-slack $(BENCH_BYTE_SLACK) -time-gate $(BENCH_TIME_GATE) \
		-o BENCH_fresh.json < bench-fresh.txt

## failover-check: the replication acceptance suite under -race —
## primary → follower tailing → kill → promote, frames bit-identical —
## plus the WAL group-commit and segment-reader edge-case tests.
failover-check:
	$(GO) test -race -run 'Failover|Follower|DataDirLocking|BackgroundSnapshot' -v ./internal/server/
	$(GO) test -race -run 'GroupCommit|Manifest|LoadState|Cursor|RecordScanner|LockDir|MetaShards|ChainGap' ./internal/wal/

## stream-check: the SSE acceptance suite under -race — broadcast
## fan-out (exactly-once, coalescing, eviction), the /stream endpoint
## end to end (resume, heartbeats, slow consumers, shutdown drain),
## and the replica manifest long-poll.
stream-check:
	$(GO) test -race -run 'Stream|Broadcast|LongPoll' -v ./internal/server/

## chaos-check: the fault-injection acceptance suite under -race — the
## scripted-fault filesystem itself, WAL degraded-mode recovery (fsync
## failure, ENOSPC mid-rotation, torn flushes, bounded reopen give-up,
## strict-mode rollback), the torn-write recovery matrix (truncate at
## every byte of the last record), and the server-level scenarios:
## degraded shard still serving reads/SSE with ingest 503 + Retry-After
## and /readyz (not /healthz) flipping, plus a flapping primary under a
## tailing follower that retries without ever resyncing.
chaos-check:
	$(GO) test -race -v ./internal/faultfs/
	$(GO) test -race -run 'Chaos|TornWriteMatrix' -v ./internal/wal/
	$(GO) test -race -run 'Chaos' -v ./internal/server/

## fuzz: run the ingest line-protocol fuzzer for a short burst.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzIngestParse -fuzztime=30s ./internal/server/

## fuzz-check: replay every fuzz target's seed corpus as regular tests
## (no fuzzing engine; -fuzz must be per-package).
fuzz-check:
	$(GO) test -run Fuzz -fuzz='^$$' ./internal/server/
	$(GO) test -run Fuzz -fuzz='^$$' ./internal/csvio/
	$(GO) test -run Fuzz -fuzz='^$$' ./internal/wal/
	$(GO) test -run Fuzz -fuzz='^$$' ./internal/obs/trace/
	$(GO) test -run Fuzz -fuzz='^$$' ./internal/plot/

## perfbench-check: vet and test the end-to-end benchmark, a separate
## module that `go test ./...` at the root does not reach.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

clean:
	$(GO) clean ./...
	rm -f bench-fresh.txt BENCH_fresh.json

## clean-data: remove WAL data directories left by local asap-server
## runs (-data-dir data).
clean-data:
	rm -rf data

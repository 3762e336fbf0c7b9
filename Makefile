# PrivAnalyzer reproduction — convenience targets.

GO ?= go

.PHONY: all build test test-short test-race test-chaos test-chaos-server bench experiments tables serve fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) vet ./...
	$(GO) test ./... 2>&1 | tee test_output.txt

test-short:
	$(GO) test -short ./...

# Race-detector pass over the packages with concurrent code paths (the
# shared interner and transition caches under concurrent searches, the
# concurrent attack columns of core.AnalyzeAll, the telemetry registry,
# the server's slow-query journal / job pool, and the CLI's concurrent
# program analyses).
test-race:
	$(GO) test -race ./internal/rewrite/ ./internal/rosa/ ./internal/core/ ./internal/telemetry/ ./internal/server/ ./cmd/privanalyzer/

# Chaos suites under the race detector (DESIGN.md §9): panics and errors
# from a poisoned test rule, per-node latency and cancellation from an
# OnStats callback, and the cmd-level signal plumbing.
test-chaos:
	$(GO) test -race -run 'Chaos|Fault|Panic|Cancel|Signal|Latency|Compile|SuccessorError' \
		./internal/rewrite/ ./internal/rosa/ ./internal/core/ ./internal/cmdutil/

# Serving-layer chaos under the race detector: a handler panic resolving
# to a 500 envelope, a stalled worker vs bounded drain, queue-full storms
# that fill the real queue and are shed by the one queue bound, retry
# hints, deadline expiry in queue, client disconnects, the error-envelope
# golden, and the saturation storm with byte-identity of admitted verdicts
# (DESIGN.md §15).
test-chaos-server:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestDeadline|TestJobDeadline|TestClientDisconnect|TestServeDrains|TestRetryAfter|TestError' \
		./internal/server/

# Quick full benchmark sweep (one iteration per cell); the default
# benchtime takes far longer across BenchmarkROSA's ~140 cells.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./... 2>&1 | tee bench_output.txt

# Run the whole evaluation and compare every cell against the paper.
experiments:
	$(GO) run ./cmd/privanalyzer -experiments

tables:
	$(GO) run ./cmd/privanalyzer -tables

# The long-lived analysis server (API.md): REST+JSON on 127.0.0.1:7177,
# per-program checkers held hot across requests.
serve:
	$(GO) run ./cmd/privanalyzerd

# Short fuzzing passes over every parser, over /v1/query request bodies, and
# the five engine fuzzers CI runs (segment charging, counted loops, Replace,
# compiled matchers, intern parts). CI also runs FuzzParseQuery, for 20s.
fuzz:
	$(GO) test -fuzz=FuzzParse$$ -fuzztime=15s ./internal/ir/
	$(GO) test -fuzz=FuzzParseTerm -fuzztime=15s ./internal/rewrite/
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=15s ./internal/rosa/
	$(GO) test -fuzz=FuzzParseSet -fuzztime=15s ./internal/caps/
	$(GO) test -fuzz=FuzzParseMode -fuzztime=15s ./internal/vkernel/
	$(GO) test -run '^$$' -fuzz FuzzQueryRequest -fuzztime 20s ./internal/api
	$(GO) test -run '^$$' -fuzz FuzzSegmentEquivalence -fuzztime 20s ./internal/interp
	$(GO) test -run '^$$' -fuzz FuzzCountedLoops -fuzztime 20s ./internal/interp
	$(GO) test -run '^$$' -fuzz FuzzReplace -fuzztime 20s ./internal/rewrite
	$(GO) test -run '^$$' -fuzz FuzzCompileEquivalence -fuzztime 20s ./internal/rewrite
	$(GO) test -run '^$$' -fuzz FuzzInternParts -fuzztime 20s ./internal/rewrite

clean:
	$(GO) clean -testcache
	rm -rf internal/*/testdata/fuzz

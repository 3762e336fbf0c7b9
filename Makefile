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
# level-parallel search engine, its callers, the telemetry registry, and
# the server's slow-query journal / job pool).
test-race:
	$(GO) test -race ./internal/rewrite/ ./internal/rosa/ ./internal/core/ ./internal/telemetry/ ./internal/server/

# Fault-injection suites under the race detector: panic isolation,
# escalation transparency, memory degradation, and the cmd-level signal
# plumbing (DESIGN.md §9).
test-chaos:
	$(GO) test -race -run 'Chaos|Fault|Escalat|Degrad|Panic|Cancel|Signal|Shed|Latency|Compile' \
		./internal/rewrite/ ./internal/rosa/ ./internal/core/ ./internal/cmdutil/ ./cmd/rosa/

# Serving-layer chaos under the race detector: injected handler panics
# resolving to 500 envelopes, a stalled worker vs bounded drain, queue-full
# storms, admission/brownout shedding, deadline expiry in queue, client
# disconnects, the error-envelope golden, and the saturation storm with
# byte-identity of admitted verdicts (DESIGN.md §15).
test-chaos-server:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestDeadline|TestJobDeadline|TestClientDisconnect|TestBrownout|TestServeDrains|TestAdmission|TestRetryAfter|TestParseBrownout|TestClampEscalate|TestError|TestServerPlan' \
		./internal/server/ ./internal/faultinject/

# Quick full benchmark sweep (one iteration per cell); the default
# benchtime takes far longer across BenchmarkROSA's ~140 cells.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./... 2>&1 | tee bench_output.txt

# Run the whole evaluation and compare every cell against the paper.
experiments:
	$(GO) run ./cmd/privanalyzer -experiments -parallel

tables:
	$(GO) run ./cmd/privanalyzer -tables

# The long-lived analysis server (API.md): REST+JSON on 127.0.0.1:7177,
# per-program checkers held hot across requests.
serve:
	$(GO) run ./cmd/privanalyzerd

# Short fuzzing passes over every parser and over /v1/query request bodies.
fuzz:
	$(GO) test -fuzz=FuzzParse$$ -fuzztime=15s ./internal/ir/
	$(GO) test -fuzz=FuzzParseTerm -fuzztime=15s ./internal/rewrite/
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=15s ./internal/rosa/
	$(GO) test -fuzz=FuzzParseSet -fuzztime=15s ./internal/caps/
	$(GO) test -fuzz=FuzzParseMode -fuzztime=15s ./internal/vkernel/
	$(GO) test -run '^$$' -fuzz FuzzQueryRequest -fuzztime 20s ./internal/api

clean:
	$(GO) clean -testcache
	rm -rf internal/*/testdata/fuzz

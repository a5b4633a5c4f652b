GO ?= go

.PHONY: all build test vet lint race bench bench-all fuzz-seeds bench-smoke chaos-smoke mutate-smoke obs-smoke query-smoke lint-corpus-smoke mem-smoke telemetry-smoke perfbench-check check ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: the determinism & concurrency contract
# (detmap, wallclock, seedrand, bannedimport, locksafe). Configured by
# repolint.json; suppress single findings with //lint:ignore <rule> <reason>.
lint:
	$(GO) run ./cmd/repolint ./...

# Full suite under the race detector, with shuffled test order — exercises
# the serial-vs-parallel equivalence tests (scanstore, linking, core) with
# real concurrency and flushes out inter-test state dependence.
race:
	$(GO) test -race -shuffle=on ./...

check: vet lint race

# Replays the fuzz seed corpora as plain tests (without -fuzz no fuzzing
# time is spent, so it is fast enough for every CI run). The x509lite seeds
# are regenerated deterministically from the certmutate operator battery, so
# this target also proves every mutation class still seeds.
fuzz-seeds:
	$(GO) test -run=Fuzz ./internal/snapshot ./internal/x509lite

# One iteration of each snapshot, query and lint benchmark — catches
# benchmarks that no longer compile or crash without burning CI minutes on
# timing.
bench-smoke:
	$(GO) test -run='^$$' -bench='Snapshot|Query|Lint' -benchtime=1x ./internal/snapshot ./internal/querystore ./internal/certlint

# One cell of the chaos matrix under the race detector: a full certscan
# sweep against a 30%-faulty population must produce a corpus snapshot
# byte-identical to the clean run (see DESIGN.md "Fault model & retry
# semantics").
chaos-smoke:
	$(GO) test -race -run 'TestChaosMatrixSnapshotIdentical/workers=4$$' -v ./cmd/certscan

# Mutation smoke: a certscan sweep of a 30%-frankencert population under the
# same 30% fault policy must converge and snapshot byte-identically at
# workers 1 and 16, and the mutant differential harness must report zero
# unexplained x509lite↔crypto/x509 disagreements (see DESIGN.md "Mutation
# model & determinism").
mutate-smoke:
	$(GO) test -race -run 'TestMutatedChaosSweep$$' -v ./cmd/certscan
	$(GO) test -race -run 'TestDifferentialOverMutants$$' -v ./internal/x509lite/difftest

# Query smoke: build a small v3 snapshot, serve it with the certquery
# handler stack on a random port, prove all four lookup endpoints answer,
# and validate the query.* metrics artifact against the obs schema. With
# QUERY_SMOKE_OUT the artifact lands next to the other obs artifacts.
query-smoke:
	QUERY_SMOKE_OUT=$(CURDIR)/obs-artifacts $(GO) test -race -run 'TestQuerySmoke$$' -v -count=1 ./cmd/certquery
	@echo wrote obs-artifacts/query_metrics.json

# Lint-corpus smoke: the pipeline's lint stage over a generated corpus must
# produce byte-identical findings at workers 1/4/16 under the race detector,
# and the persisted findings column must round-trip every finding (see
# DESIGN.md "Lint registry contract").
lint-corpus-smoke:
	$(GO) test -race -run 'TestLintCorpusSmoke$$' -v -count=1 ./internal/core

# Observability smoke: a small instrumented sweep with the full obs surface
# on (metric registry, span tracer, parallel observer) must emit
# schema-valid metrics and trace artifacts. OBS_SMOKE_OUT leaves
# obs_metrics.json / obs_trace.jsonl behind for CI to upload next to
# BENCH_snapshot.json (see DESIGN.md "Observability contract").
obs-smoke:
	OBS_SMOKE_OUT=$(CURDIR)/obs-artifacts $(GO) test -race -run 'TestObsSmoke$$' -v -count=1 ./cmd/certscan
	@echo wrote obs-artifacts/obs_metrics.json and obs-artifacts/obs_trace.jsonl

# Telemetry smoke: a chaos sweep with the live telemetry surface on — debug
# server, sampler, journal, tracer — scraped mid-run: /metrics must parse
# under the in-repo Prometheus checker and cover every registered metric,
# /statusz must answer in HTML and JSON, /samples and /events must validate
# against their schemas. TELEMETRY_SMOKE_OUT leaves telemetry_events.jsonl
# behind for CI to upload next to the obs-smoke artifacts (see DESIGN.md
# "Live telemetry & exposition").
telemetry-smoke:
	TELEMETRY_SMOKE_OUT=$(CURDIR)/obs-artifacts $(GO) test -race -run 'TestTelemetrySmoke$$' -v -count=1 ./cmd/certscan
	@echo wrote obs-artifacts/telemetry_events.jsonl

# Memory-envelope smoke: stream a ~16k-host population (≈50× the chunk-sweep
# golden) through core.StreamSnapshot on a 4 MiB budget and fail if the heap
# high-water or process peak RSS leaves its ceiling (see DESIGN.md "Streaming
# build & memory envelope"). Deliberately NOT under -race: the race runtime
# multiplies heap usage, which would force ceilings too slack to catch a
# regression back to resident behaviour. MEM_SMOKE_DEVICES scales the
# population (e.g. MEM_SMOKE_DEVICES=750000 approximates the paper's 10⁶-host
# sweeps); MEM_SMOKE_HEAP_MB / MEM_SMOKE_RSS_MB move the ceilings with it.
mem-smoke:
	MEM_SMOKE=1 $(GO) test -run 'TestMemSmoke$$' -v -count=1 ./internal/core

# The benchmark harness is its own Go module (perfbench/go.mod), so the root
# ./... patterns never compile it: vet and test it here, so a core API change
# that breaks `bash perfbench/run.sh` fails CI instead of the next benchmark.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Everything CI runs, in CI order; fails on any new repolint finding.
ci: build vet lint
	$(GO) test -race -shuffle=on ./...
	$(MAKE) fuzz-seeds
	$(MAKE) bench-smoke
	$(MAKE) chaos-smoke
	$(MAKE) mutate-smoke
	$(MAKE) obs-smoke
	$(MAKE) telemetry-smoke
	$(MAKE) query-smoke
	$(MAKE) lint-corpus-smoke
	$(MAKE) mem-smoke
	$(MAKE) perfbench-check

# Perf trajectory: snapshot + parse benchmarks rendered to machine-readable
# JSON so future PRs have a baseline to compare against (certs/sec, MB/s,
# allocs/op per benchmark).
bench:
	$(GO) test -run='^$$' -bench='Snapshot|Parse|Query|Lint' -benchmem \
		./internal/snapshot ./internal/x509lite ./internal/querystore ./internal/certlint ./cmd/certquery \
		| $(GO) run ./cmd/benchjson > BENCH_snapshot.json
	@echo wrote BENCH_snapshot.json

# The original whole-repo benchmark sweep (facade-level benches included).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Build and verification entry points. `make check` is the full gate:
# build, vet, the test suite, the race-detector run that guards the
# parallel analysis engine, and every check-* suite below, including the
# fault-injection and resilience suites (cancellation, injected faults,
# worker panics, degraded reports) and the observability determinism
# suites.

GO ?= go

.PHONY: help build test vet race check check-determinism check-faults check-obs check-chaos check-symbolic check-cache check-dist check-live check-remote lint-prints bench bench-parallel bench-bdd bench-obs bench-journal bench-symbolic bench-cache bench-dist bench-live bench-remote clean

help:
	@echo "make build         - compile all packages"
	@echo "make test          - run the test suite"
	@echo "make vet           - go vet"
	@echo "make race          - test suite under the race detector"
	@echo "make check         - build + vet + test + race + every check-* suite (the full gate)"
	@echo "make check-determinism - worker-count determinism suites under -race at 1, 2 and 4 CPUs"
	@echo "make check-faults  - fault-injection & resilience suites under -race"
	@echo "make check-obs     - observability determinism suites under -race"
	@echo "make check-chaos   - durability suites & chaos soak (kill/resume) under -race"
	@echo "make check-symbolic- symbolic-engine property & differential suites under -race"
	@echo "make check-cache   - verdict-cache & fingerprint-coverage suites under -race"
	@echo "make check-dist    - distributed ledger & multi-process chaos suites under -race"
	@echo "make check-live    - live telemetry (bus, HTTP surface, fleet, flight) under -race"
	@echo "make check-remote  - machine-spanning launcher & network-chaos suites under -race"
	@echo "make lint-prints   - fail on stray stdout writes inside internal/"
	@echo "make bench         - regenerate every table and figure"
	@echo "make bench-parallel- worker fan-out benchmarks -> BENCH_1.json"
	@echo "make bench-bdd     - BDD kernel benchmarks -> BENCH_2.json"
	@echo "make bench-obs     - observer overhead benchmarks -> BENCH_3.json"
	@echo "make bench-journal - journal overhead benchmarks -> BENCH_4.json"
	@echo "make bench-symbolic- symbolic lever A/B benchmarks -> BENCH_5.json"
	@echo "make bench-cache   - cold vs warm verdict-cache A/B -> BENCH_6.json"
	@echo "make bench-dist    - single-process vs distributed A/B -> BENCH_7.json"
	@echo "make bench-live    - live telemetry surface overhead A/B -> BENCH_8.json"
	@echo "make bench-remote  - local procs vs loopback agents A/B -> BENCH_9.json"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check: build vet test race check-determinism check-faults check-obs check-chaos check-symbolic check-cache check-dist check-live check-remote

# check-determinism re-runs the worker-count determinism suites — every
# stage's and the whole pipeline's identical-across-workers tests — under
# the race detector at one, two and four CPUs, so a schedule-dependent
# result cannot hide behind a single-CPU machine.
check-determinism:
	$(GO) test -race -count 1 -cpu 1,2,4 -run 'Determinis|AcrossWorkers' \
		./internal/testgen ./internal/measure ./internal/partition \
		./internal/core ./internal/experiments

# check-faults re-runs the resilience surface with the race detector on:
# the fail/faults/par unit suites plus every stage's injected-fault,
# cancellation and panic-isolation tests, including the wiper end-to-end
# degradation tests.
check-faults:
	$(GO) test -race \
		./internal/fail ./internal/faults ./internal/par \
		-run . -count 1
	$(GO) test -race -count 1 \
		-run 'Resilien|Cancel|Panic|Fault|Budget|Degrad|Unknown|Leak|Unavailable|Wiper' \
		./internal/mc ./internal/partition ./internal/testgen \
		./internal/measure ./internal/core ./internal/experiments

# check-obs drives the observability layer's own suite plus the canonical-
# export determinism tests (clean and fault-injected wiper pipelines) under
# the race detector — the byte-identical-across-workers guarantee is
# exactly the kind of property a data race would silently break.
check-obs:
	$(GO) test -race -count 1 ./internal/obs
	$(GO) test -race -count 1 -run 'Observability|Deterministic' \
		./internal/experiments

# check-chaos drives the durability surface with the race detector on, at
# one, two and four CPUs: the journal/retry unit suites, the chaos soak
# harness (seed-driven kill+resume campaigns with injected faults and torn
# writes), the generator's journal-replay and retry tests, measurement
# retry, and the wiper kill/resume byte-identity acceptance tests.
check-chaos:
	$(GO) test -race -count 1 -cpu 1,2,4 ./internal/journal ./internal/retry ./internal/chaos
	$(GO) test -race -count 1 -cpu 1,2,4 \
		-run 'Journal|Resume|Retr|Failover|Soak|Kill|Stall|Heal' \
		./internal/testgen ./internal/measure \
		./internal/core ./internal/experiments

# check-symbolic drives the symbolic engines' correctness surface under
# the race detector, at one and two CPUs: the BDD kernel's property suites
# (including reordering), the mc differential suites (sliced vs unsliced,
# reordered vs static, pooled vs fresh through the test-only lever hook,
# the three-engine agreement on random models), the forward engine's dispatch, fallback and
# resilience tests, the node-budget failover from the forward engine to
# the explicit one, the forward-vs-reachability check of every residue
# path of a generated program, the slicing pass's unit tests, and the
# end-to-end lever determinism pin on the wiper study.
check-symbolic:
	$(GO) test -race -count 1 -cpu 1,2 ./internal/bdd ./internal/opt
	$(GO) test -race -count 1 -cpu 1,2 \
		-run 'Sliced|Slice|Reorder|Pooled|Lever|EnginesAgree|Forward|FailsOver|Failover' \
		./internal/mc ./internal/experiments ./internal/testgen

# check-cache drives the incremental re-analysis surface under the race
# detector, at one, two and four CPUs: the vcache store's own suite
# (concurrent put/get included), the generator's cache semantics tests
# (warm-run identity, cross-edit hit survival, journal-beats-cache
# precedence, budget-keyed degraded verdicts, poisoned-env fail-closed), the journal fingerprint regression and
# reflection field-coverage tests that pin every option field into a
# fingerprint or an explicit exemption, and the wiper warm-cache
# byte-identity and event-count acceptance tests.
check-cache:
	$(GO) test -race -count 1 -cpu 1,2,4 ./internal/vcache
	$(GO) test -race -count 1 -cpu 1,2,4 \
		-run 'VCache|Fingerprint|WarmCache' \
		./internal/testgen ./internal/journal ./internal/tsys \
		./internal/core ./internal/experiments

# check-dist drives the distributed work ledger under the race detector,
# at one, two and four CPUs: the ledger package's own suite (spec
# round-trip and option-surface coverage, merge shuffle determinism,
# worker-death reclamation, coordinator restart, repeated-death
# quarantine, the two-round bound), the multi-process chaos
# acceptance (real SIGKILLed worker processes, a SIGKILLed and restarted
# coordinator, byte-identity against the single-process reference), and
# the wcet CLI's distributed smoke tests including the exit-code contract.
check-dist:
	$(GO) test -race -count 1 -cpu 1,2,4 ./internal/ledger ./cmd/wcet
	$(GO) test -race -count 1 -cpu 1,2,4 -run 'Dist' ./internal/chaos

# check-live drives the live-telemetry surface under the race detector:
# the event bus / flight recorder / Prometheus / telemetry-sidecar suites
# and the HTTP status server's own tests, the journal's concurrent-reader
# snapshot test, the ledger's fleet-aggregation and heartbeat tests, the
# backpressure byte-identity acceptance (stalled subscribers and unread
# SSE consumers shed events, never bytes), and the CLI's -status
# acceptance drive plus the exports-on-every-exit-code contract.
check-live:
	$(GO) test -race -count 1 ./internal/obs ./internal/obs/serve
	$(GO) test -race -count 1 \
		-run 'ReadFileConcurrent|MemoryJournal|ReadFleet|Heartbeat|Quarantine' \
		./internal/journal ./internal/ledger
	$(GO) test -race -count 1 \
		-run 'Backpressure|LiveServer|LiveStatus|ExportsWritten' \
		./internal/experiments ./cmd/wcet

# check-remote drives the machine-spanning surface under the race
# detector: the remote package's own suite (byte-prefix streaming, fault-
# transport determinism, reconnect across torn streams, unreachable-host
# fallback onto local workers), the network-chaos acceptance (deterministic
# tears/partitions/duplications on the wire, an agent SIGKILLed mid-run, a
# SIGKILLed-and-restarted coordinator harvesting partially-streamed
# journals, byte-identity against the single-process reference), the
# process-group kill contract, the remote-harvester sidecar robustness
# tests, and the CLI's -agents / -ledger-agent / SIGTERM smoke tests.
check-remote:
	$(GO) test -race -count 1 ./internal/remote
	$(GO) test -race -count 1 -run 'RemoteNetChaos' ./internal/chaos
	$(GO) test -race -count 1 \
		-run 'ProcLauncherKill|RemoteHarvester|FreshSidecar' ./internal/ledger
	$(GO) test -race -count 1 \
		-run 'RemoteAgents|Sigterm' ./cmd/wcet

# lint-prints guards the stdout/stderr contract: library code under
# internal/ must never print — results belong to the cmd tools' stdout,
# human diagnostics to the observer's progress stream. internal/obs is the
# one package allowed to hold an io.Writer, and tests are exempt.
lint-prints:
	@bad=$$(grep -rn 'fmt\.Print\|os\.Stdout' internal/ \
		--include '*.go' \
		--exclude '*_test.go' \
		--exclude-dir obs || true); \
	if [ -n "$$bad" ]; then \
		echo "stray print/stdout in internal/ (route through cmd/ or obs):"; \
		echo "$$bad"; \
		exit 1; \
	fi

bench:
	$(GO) test -bench . -benchtime 1x .

# bench-parallel runs the worker-fan-out benchmarks and appends the parsed
# results (including the speedup metric) to BENCH_1.json via cmd/benchlog.
bench-parallel:
	$(GO) test -run '^$$' -bench Parallel -benchtime 3x . | $(GO) run ./cmd/benchlog -out BENCH_1.json

# bench-bdd runs the BDD-kernel microbenchmarks plus the end-to-end hybrid
# test-generation benchmark and appends the parsed results to BENCH_2.json;
# the first entry in that file is the pre-rewrite map-based baseline.
bench-bdd:
	( $(GO) test -run '^$$' -bench BDD -benchtime 10x ./internal/bdd ; \
	  $(GO) test -run '^$$' -bench 'HybridTestGenParallel|Table2|CaseStudy' -benchtime 3x . ) \
	| $(GO) run ./cmd/benchlog -out BENCH_2.json

# bench-obs measures the observability layer's cost: BenchmarkTable2 and
# the hybrid test-gen benchmark (observer disabled — the no-op overhead vs
# the seed entry already in BENCH_3.json) plus BenchmarkObserverOverhead
# (disabled vs enabled side by side).
bench-obs:
	$(GO) test -run '^$$' -bench 'Table2|HybridTestGenParallel|ObserverOverhead' -benchtime 3x . \
	| $(GO) run ./cmd/benchlog -out BENCH_3.json

# bench-journal measures what crash safety costs: the wiper case-study
# pipeline with journaling off and on (fresh journal per iteration — every
# unit appended, none replayed). The overhead-% metric must stay under 3%;
# 20 iterations per variant because the ~90ms pipeline runs drown a
# sub-millisecond journal cost in scheduler noise at smaller counts.
bench-journal:
	$(GO) test -run '^$$' -bench JournalOverhead -benchtime 20x . \
	| $(GO) run ./cmd/benchlog -out BENCH_4.json

# bench-symbolic measures the raw-symbolic-speed work: the interleaved
# lever A/B on the unoptimised Table 2 model (before = all levers off
# through mc's test-only hook, after = the default engine, timed back to
# back each iteration) plus the
# end-to-end Table 2 and hybrid test-generation benchmarks, appended to
# BENCH_5.json. The file's first entries are the pre-lever baselines.
bench-symbolic:
	( $(GO) test -run '^$$' -bench SymbolicLevers -benchtime 3x ./internal/mc ; \
	  $(GO) test -run '^$$' -bench 'Table2$$|HybridTestGen$$' -benchtime 3x . ) \
	| $(GO) run ./cmd/benchlog -out BENCH_5.json

# bench-cache measures what the persistent verdict cache buys: an
# interleaved cold-vs-warm A/B on the wiper chart after a one-line edit
# (cold = empty store, warm = store populated by a pre-edit run, timed
# back to back each iteration from fresh copies of the same seed store),
# appended to BENCH_6.json. The speedup-x metric must stay >= 5; the
# benchmark itself asserts the cached and clean canonical reports are
# byte-identical.
bench-cache:
	$(GO) test -run '^$$' -bench VerdictCacheColdWarm -benchtime 3x . \
	| $(GO) run ./cmd/benchlog -out BENCH_6.json

# bench-dist measures what distribution costs at case-study scale: the
# interleaved single-process vs 4-worker A/B on the wiper pipeline (fresh
# journals per iteration, byte-identity asserted every iteration),
# appended to BENCH_7.json. At this workload size the coordination
# overhead dominates, so the speedup metric is a regression canary for
# that overhead rather than a >1 claim.
bench-dist:
	$(GO) test -run '^$$' -bench Distributed -benchtime 3x . \
	| $(GO) run ./cmd/benchlog -out BENCH_7.json

# bench-live measures what watching a run costs: the wiper pipeline with a
# bare observer vs one carrying the full -status surface (running HTTP
# server plus an SSE subscriber that never reads — the worst-case
# consumer), timed back to back each iteration with byte-identity
# asserted. The overhead-% metric must stay under 2%: publishing an event
# is a mutex acquisition and a ring write, never a blocking send.
bench-live:
	$(GO) test -run '^$$' -bench LiveTelemetry -benchtime 20x . \
	| $(GO) run ./cmd/benchlog -out BENCH_8.json

# bench-remote measures what machine-spanning costs in the best case
# (loopback TCP, no faults): the wiper pipeline over 4 local worker
# processes vs the same 4 workers leased onto two loopback agents with
# journals streamed back frame by frame, interleaved with byte-identity
# asserted every iteration. The overhead-% metric prices the TCP hop and
# the journal/telemetry forwarding alone — same workers, same shards.
bench-remote:
	$(GO) test -run '^$$' -bench RemoteAgents -benchtime 3x . \
	| $(GO) run ./cmd/benchlog -out BENCH_9.json

clean:
	$(GO) clean ./...

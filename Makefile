# Developer entry points. `make check` is the full gate: vet plus the
# race-enabled test suite. CI and pre-commit should run exactly that.

GO ?= go

.PHONY: all build test vet run-patterns race race-observability race-transport race-wire race-alerts race-runtime race-store race-tenant race-tsdb race-qos race-meta replay-determinism fuzz-smoke cross check bench bench-vet bench-test bench-suite bench-compare bench-telemetry bench-tenant bench-archive bench-qos bench-paper loc clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Every alternative of every quoted -run or -bench pattern in this
# Makefile must match a test, benchmark, fuzz target or example that `go
# test -list` reports: one deleted or renamed would otherwise leave its
# gate or benchmark target running nothing, and passing. '^$$' (run no
# tests) is exempt.
run-patterns:
	@names=$$($(GO) test -list '.*' ./... | grep -E '^(Test|Benchmark|Fuzz|Example)'); \
	stale=$$(grep -oE -- "-(run|bench) '[^']*'" Makefile | sed "s/^-[a-z]* '\(.*\)'$$/\1/" | tr '|' '\n' | grep -vx '\^\$$\$$' | sort -u | \
		while read -r alt; do echo "$$names" | grep -Eq -- "$$alt" || echo "$$alt"; done); \
	if [ -n "$$stale" ]; then echo "run-patterns: no test matches" $$stale; exit 1; fi

# Focused race gate for the observability stack: the telemetry sampler,
# trace recorder, metrics registry and decision-audit ring are the
# packages mutated from every goroutine, so they fail first and fastest
# under -race. They and the event log keep their histories in
# internal/ring, which has no lock of its own: each owner's mutex guards
# it. The wire package rides along for the decode fuzz (testing/quick)
# suite.
race-observability:
	$(GO) test -race ./internal/telemetry/ ./internal/trace/ ./internal/metrics/ ./internal/wire/ ./internal/audit/ ./internal/ring/

# Focused race gate for the transport stack: the mux writer's write
# token, the per-connection demux read loops, and the pool's shared-
# connection management are the RPC layer's concurrency hot spots. Runs
# the framing fuzz (testing/quick, FuzzMuxReader's seed corpus) suites
# under -race as well, and — whole packages, no run list — the per-server
# run tests: TestRuns*, TestReadRunHolePastLocalEnd, TestOneDataRPCPerServer,
# TestShortReplicaIsNotAHole, TestRandomOpsMatchFlatModel (TCP, byte-for-byte
# against a flat model), TestMuxWriterHalfSentMessagesBounded and
# TestInprocCloseHangsUpOnBacklog.
race-transport:
	$(GO) test -race ./internal/wire/ ./internal/transport/ ./internal/pfs/

# Focused race gate for the client's buffer lifetimes. By-reference writes:
# a request frame aliases its caller's buffer until it has left the writer,
# so the lifetime tests scribble over the buffer the moment
# WriteAt/WriteWindowed returns — after a stalled and killed connection, a
# short acknowledgement, a remote error behind another caller's bulk, a dead
# replica of three — and -race reports any writer still reading it. Landed
# reads: the read loop writes response bodies into the caller's buffer, so
# TestLandingReleaseMidBody scribbles over it once Release has abandoned a
# body mid-landing, and -race reports a landing still writing. Landed
# writes: the server's read loop writes request bodies into extent files'
# pages and hands the landing to a handler, so the write-landing tests race
# a cut, a hang-up and a busy gate against it, check that the fd-cache
# references and data.inflight of every landing come back, and that a
# landing is delivered while its connection's writes queue at a full gate.
# Ten rounds: the windows are narrow.
race-wire:
	$(GO) test -race ./internal/wire/
	$(GO) test -race -count=10 -run 'TestByRef|TestWriteWindowed|TestWindowed|TestStreamOverMux|TestMuxCalls|TestFileRoundTrip|TestReplicatedWrite|FuzzStridedRange|TestLanding|FuzzMuxLanding|TestWriteLanding|TestWriteDest|FuzzWriteLanding' ./internal/pfs/

# Ten seconds of native fuzzing each on mux segment reassembly (announced
# totals, type changes, interleaved streams), on metadata-journal replay
# (arbitrary bytes: only checksummed entries applied, file cut at the
# intact prefix) and on by-reference write bodies (a random striping view ×
# a random range of it: the caller's own pieces, concatenating to the
# contiguous gather, in frames identical to the inline encoding) and on
# landed read bodies (one ReadResp in random segments, into a random
# striping view: the bytes and EOF of the assembled decode, nothing written
# outside the view, bad prefixes and torn tails refused) and on landed
# write bodies (one WriteReq in random segments, with or without a tenant,
# granted a landing or not: the address, tenant and bytes of the assembled
# decode, bad prefixes, oversize bodies and torn tenants refused, every
# refused landing aborted once) and on
# kernel chunking (every registered kernel: any split of the stream, and a
# Checkpoint→Restore in the middle of it, ends in the unsplit run's result)
# and on the kernels' mapped input (writes, truncates and removes over 4–64
# KiB extents: every view of a range byte-identical to ReadAt of it) and on
# introspection (any kind, any params, against a data server with every
# plane attached: a reply, or StatusUnsupported or StatusInvalid, never a
# panic).
# The seed corpora alone run in every plain `go test`.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzMuxReader -fuzztime 10s
	$(GO) test ./internal/pfs/ -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s
	$(GO) test ./internal/pfs/ -run '^$$' -fuzz FuzzStridedRange -fuzztime 10s
	$(GO) test ./internal/pfs/ -run '^$$' -fuzz FuzzMuxLanding -fuzztime 10s
	$(GO) test ./internal/pfs/ -run '^$$' -fuzz FuzzWriteLanding -fuzztime 10s
	$(GO) test ./internal/pfs/ -run '^$$' -fuzz FuzzExtentView -fuzztime 10s
	$(GO) test ./internal/pfs/ -run '^$$' -fuzz FuzzIntrospect -fuzztime 10s
	$(GO) test ./internal/kernels/ -run '^$$' -fuzz FuzzKernelChunking -fuzztime 10s

# Focused race gate for the active runtime's task table: the admission
# path, the tasks' own goroutines, the policy loop, cancels and probes all
# read and change it from their own goroutines. The decision pins (the
# runtime's and the whole node's), the attach of a wrapped runtime to the
# data server's gate, the arrival-order view, the cancel of a queued or
# taken request (and of another client's same request id), and the probes
# (in process and over the wire, with a read held at the gate) run ten
# rounds each: the windows between a core's grant and a kernel start are
# narrow. So do the three tests that drive normal-I/O pressure through
# the gate the estimator reads, Normal tickets held on it
# (TestEstimatorDiscountsForNormalIOPressure,
# TestRuntimeInterruptsUnderNormalIOPressure,
# TestRuntimeRecordsBouncedDecision), and TestReevaluationPricesLoadThatLasts,
# whose queued bounce is counted by the request's own goroutine after the
# re-evaluation that withdrew it. So does TestCancelMigratesRunningKernel:
# its cancel flags a kernel between two chunks, and the migration must be
# recorded once. Every runtime fact is written by one goroutine and read by
# others — a withdrawn task settles on its own goroutine what its
# withdrawer decided, an interrupt is recorded under the table's lock — so
# the root tests that check the node's four decision sinks agree
# (assertDecisionsConserved) run three rounds: TestPacedBatchKeepsItsKernels,
# a paced n = 8 batch on a one-node cluster that must keep its kernels on
# the node (about three seconds each), the cross-validation sweep
# TestSimulatorMatchesLiveSystem and the bouncing storm of
# TestTelemetryContendedRun.
race-runtime:
	$(GO) test -race -count=10 -run 'TestRuntimeDecisionsPinned|TestNodeDecisionsPinned|TestAttachedWrapperSharesNodeQueue|TestRuntimeViewInArrivalOrder|TestRuntimeCancel|TestEstimatorProbeReflectsState|TestRuntimeProbeCountsBusyCores|TestProbeOverWire|TestEstimatorDiscountsForNormalIOPressure|TestRuntimeInterruptsUnderNormalIOPressure|TestRuntimeRecordsBouncedDecision|TestCancelMigratesRunningKernel|TestReevaluationPricesLoadThatLasts' ./internal/core/
	$(GO) test -race -count=3 -run 'TestPacedBatchKeepsItsKernels|TestSimulatorMatchesLiveSystem|TestTelemetryContendedRun' .

# Focused race gate for the storage layer: the extent store's size cache
# and refcounted fd cache are hit concurrently by reads, writes,
# truncates, in-flight zero-copy payloads and kernel views pinning
# descriptors and their mappings; the cross-validation suite and the
# view-vs-ReadAt equivalence tests churn all of them under -race. The
# mapped-send tests cut the extent of an in-flight 2 MiB send over TCP and
# the in-process pipe, and cancel one mid-frame: zero-filled frames, the
# connection still answering, pins and mappings back. The sendfile goldens
# send over a hole, a short extent file and an extent cut mid-send.
race-store:
	$(GO) test -race -run 'TestExtent|TestFDCache|TestFileStore|TestStore|TestMappedSend|TestSendfile' ./internal/pfs/

# Focused race gate for the operational plane: the event-log ring is
# written from every subsystem while dosasctl events tails it, and the
# SLO engine's state machines advance on the sampler goroutine while
# alert fetches read them. The OpenMetrics renderer reads all three.
race-alerts:
	$(GO) test -race ./internal/eventlog/ ./internal/slo/ ./internal/openmetrics/

# Focused race gate for the tenant attribution plane: the per-tenant
# LRU table is bumped on every request from every connection goroutine
# while the telemetry tick reads wait shares and dosasctl sweeps
# snapshots; the queue instrumentation feeding it rides along.
race-tenant:
	$(GO) test -race ./internal/tenant/ ./internal/ioqueue/

# Focused race gate for the telemetry archive: chunk files are appended
# from the sampler tick while queries, pruning, and downsample sealing
# walk the same state; the crash-reopen property tests churn it all
# under -race. The query introspection rides along: TestIntrospect asks
# every kind of a data and a metadata server, planes nil and attached, and
# the root tests sweep a cluster.
race-tsdb:
	$(GO) test -race ./internal/tsdb/ ./internal/telemetry/
	$(GO) test -race -run 'TestIntrospect' ./internal/pfs/
	$(GO) test -race -run 'TestQuery|TestFSQuery|TestIncidentReport|TestClusterReport|TestAggregateNodes' .

# Focused race gate for the tail-latency isolation plane: the QoS gate's
# two pools (I/O slots, kernel cores) admit inline on callers' goroutines
# and hand their slots over on release, in the WDRR order of their own
# classes in one queue, while cancels withdraw queued tickets — the
# two-pool tests, the inline path, the idle one-slot gate, the free kernel
# core, the empty pools at rest and a landing on a one-slot gate ten
# rounds each — the cancel registry races CancelReqs against registration
# and the mid-frame zero-fill, and hedged reads race two replica
# streams (plus server death) over one destination buffer — a server's
# strided run of it, with the hedge's winner scattered out of scratch
# (TestHedgeWinnerScattersIntoRun) and holes zero-filled per run. The
# latency tracker's EWMA/decay state rides along.
race-qos:
	$(GO) test -race -run 'TestQoS|TestCancel|TestServerCancel|TestHedge|TestPrimary|TestReplicaOrder|TestReplicatedRead|TestReadRunHole|TestShortReplica|TestRandomOps|TestLatency|TestHedgeDelay|TestSizeClass|TestWDRR|TestMetaStorm|TestNoCredit' ./internal/pfs/ ./internal/ioqueue/
	$(GO) test -race -count=10 -run 'TestQoSGatePoolsIndependent|TestQoSGateIdleIgnoresActive|TestQoSGateInlineAdmission|TestQoSGateOneSlotIdle|TestQoSGateActiveInlineOnFreeCore|TestQoSGateRace|TestWriteDestOneSlotGate|TestPopClassServesItsClasses' ./internal/pfs/ ./internal/ioqueue/
	$(GO) test -race -run 'TestWaitShare|TestReadReqReqID|TestNamespaceTenant' ./internal/tenant/ ./internal/wire/

# Focused race gate for the metadata mutation path: mutations enqueue
# journal entries under the namespace lock and wait for a group commit
# outside it, CompactJournal swaps the file under writers, the crash-hook
# property test kills the device at every write and sync, and the
# admission gate's inline admissions race its hand-offs on release for
# slots. Remove sweeps only the stripes below the size the metadata
# server recorded, in parallel; a failed transform sweeps the destination
# stripes its parts wrote, then its name, and one whose only loss was the
# size update's reply keeps them.
race-meta:
	$(GO) test -race -run 'TestJournal|FuzzJournalReplay|TestRemoveIsOneMetadataRPC|TestConcurrentCreates|TestQoSGate|TestRemoveNeverWrittenIsOneRPC|TestRemoveSweepsOnlyServersItsSizeReaches|TestReplicatedRemoveSweepsStripesBelowSize' ./internal/pfs/
	$(GO) test -race -run 'TestFailedTransformLeavesNoStripes|TestTransformLostSetSizeReply' ./internal/core/

# Counterfactual replay must be byte-deterministic: the same decision log
# and policy set produce the same report JSON on every run (no map
# iteration, no wall clock in the scoring path). Replays the committed
# golden log twice and diffs the outputs byte for byte.
replay-determinism:
	$(GO) run ./cmd/dosasctl whatif -log internal/audit/testdata/golden_log.json -json > /tmp/dosas-replay-a.json
	$(GO) run ./cmd/dosasctl whatif -log internal/audit/testdata/golden_log.json -json > /tmp/dosas-replay-b.json
	cmp /tmp/dosas-replay-a.json /tmp/dosas-replay-b.json
	@echo "replay-determinism: OK (byte-identical reports)"

# The benchmark is its own module (bench/go.mod), which `go build ./...` and
# `go vet ./...` at the root do not compile; this does, under run.sh's
# environment, so that a change to what bench/ imports breaks here first.
bench-vet:
	GOWORK=off GOFLAGS=-buildvcs=false $(GO) -C bench vet ./...

# bench/'s own tests, in the same environment: they build runtimes and
# clusters through the program's APIs (TestSmoke, TestProbes,
# TestStoreShimKeepsRangeReader), so a change to those APIs that breaks the
# benchmark fails here rather than in the benchmark run.
bench-test:
	GOWORK=off GOFLAGS=-buildvcs=false $(GO) -C bench test ./...

# Builds the tree never runs here: darwin/arm64 and linux/arm64 vet every
# package, including the off-Linux mmap and sendfile files and the tests'
# build constraints, and a 386 run of the kernels' tests exercises sum8's
# portable word loop as the whole kernel (amd64 runs the SSE2 block loop).
# The 386 runs of the wire codec and of journal replay check that a length
# prefix of 2^31 or more, from a peer's frame or a torn journal tail, is
# refused rather than turned negative by a 32-bit int and panicking.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/kernels/
	GOARCH=386 $(GO) test ./internal/wire/
	GOARCH=386 $(GO) test ./internal/pfs/ -run Journal

check: vet run-patterns bench-vet bench-test cross race-observability race-transport race-wire race-runtime race-store race-alerts race-tenant race-tsdb race-qos race-meta replay-determinism race

# Data-path and kernel microbenchmarks (fixed iteration counts so runs
# compare across commits): every registered kernel over a 1 MiB chunk that
# stays in cache, sum8 and its portable loop striding 256 MiB 1 MiB at a
# time, once through a read-only mapping of a resident file (the input a
# page-cache scan reads) and once over a Go heap buffer, which may sit on
# huge pages and then hides the stall at each 4 KiB page boundary; an
# 8 MiB sum8 through Runtime.HandleActive over a MemStore, over an extent
# store, and on two runtimes at once; one ReadResp leaving over TCP
# loopback from resident extent pages at 64 KiB, 256 KiB and 2 MiB, by
# writev from the mapping, by sendfile and by a staged copy. The first
# line includes the window-vs-serial read matrix (ReadPathLatency: 250 µs
# one way, 256 KiB chunks, window depth 1 against 2, 4 and 8).
bench:
	$(GO) test ./internal/pfs/ -run '^$$' -bench 'ReadPath|WritePath' -benchtime 15x -benchmem
	$(GO) test ./internal/pfs/ -run '^$$' -bench 'ReadRespSend' -benchtime 2000x
	$(GO) test ./internal/kernels/ -run '^$$' -bench 'Kernel' -benchtime 200x
	$(GO) test ./internal/core/ -run '^$$' -bench 'RuntimeExecute' -benchtime 50x

# The repository's benchmark (bench/README.md): five workloads over real
# TCP daemons, end-to-end and per-layer metrics, ~4 min; writes
# bench/out/BENCH.json. bench-compare diffs that run against the
# committed baseline and fails on a regression outside the bounds.
bench-suite:
	sh bench/run.sh

bench-compare:
	sh bench/run.sh -compare bench/BENCH.baseline.json bench/out/BENCH.json

# Telemetry overhead: active read path with samplers off, at the default
# 100ms tick, and at a pathological 1ms tick. The acceptance bar is <1%
# delta between Off and On.
bench-telemetry:
	$(GO) test . -run '^$$' -bench 'ReadPathTelemetry' -benchtime 50x

# Tenant attribution under contention: aggressor/victim queue-wait
# split, the noisy-neighbor alert, and the attribution plane's A/B
# overhead (writes BENCH_tenant.json).
bench-tenant:
	$(GO) run ./cmd/dosas-bench -exp noisy-neighbor

# Durable telemetry archive: A/B overhead of archiving every sampler
# tick (budget <1%) and restart continuity of the stitched range query
# (writes BENCH_archive.json).
bench-archive:
	$(GO) run ./cmd/dosas-bench -exp archive

# Tail-latency isolation: weighted-fair admission A/B (victim p99 gated
# vs ungated vs uncontended) and the hedged-read/replica-selection
# straggler experiments (writes BENCH_qos.json).
bench-qos:
	$(GO) run ./cmd/dosas-bench -exp qos-isolation
	$(GO) run ./cmd/dosas-bench -exp straggler

# Regenerate the paper's tables and figures (Table III's kernel rates on
# this host, the rest from the simulator) and the ablations beside them:
# solvers, interrupt-and-migrate, mixed queues, load skew and the
# trace-driven stream. One iteration each; sim-sec/run is the y-axis.
bench-paper:
	$(GO) test -run '^$$' -bench 'Table|Fig|Solvers|Migration|MixedSizes|Skew|TraceStream' -benchtime 1x .

# Non-test Go line counts, the figures ROADMAP and CHANGES.md quote: the
# program outside bench/ and examples/, the RPC stack (internal/pfs and
# internal/wire), the scheduler (internal/core), the binaries (cmd/) and
# the observability packages (histories, metrics, exports, SLOs, archive,
# tenant table). Not part of check: it measures, it does not gate.
LOC = find $(1) -name '*.go' ! -name '*_test.go' $(2) | xargs cat | wc -l
loc:
	@echo "outside bench/ examples/: $$($(call LOC,.,! -path './bench/*' ! -path './examples/*' ! -path './.bench_build/*'))"
	@echo "internal/pfs+wire:        $$($(call LOC,internal/pfs internal/wire))"
	@echo "internal/core:            $$($(call LOC,internal/core))"
	@echo "cmd/:                     $$($(call LOC,cmd))"
	@echo "observability:            $$($(call LOC,internal/trace internal/audit internal/eventlog internal/telemetry internal/metrics internal/openmetrics internal/slo internal/tsdb internal/tenant))"

clean:
	$(GO) clean ./...
	rm -rf .bench_build bench/out

GO ?= go

.PHONY: all build fmt vet test race allocs chaos short fuzz ci bench-test service-soak overload soak-clean figures lines

all: build vet test

build:
	$(GO) build ./...

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Non-test Go lines outside bench/: the number the design budget and every
# simplicity change's acceptance criterion cite.
lines:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l

test:
	$(GO) test ./...

# Full suite under the race detector (what CI runs).
race:
	$(GO) test -race ./...

# The allocation guards and the pinned outputs they protect, without the
# race detector: it changes allocation counts, so the guards are built
# only without it (a `go test -race` run, CI's main step, skips them).
allocs:
	$(GO) test -count=1 -run 'Allocs|Pinned|Descriptions' ./internal/detect/ ./internal/dws/ ./internal/p2pmatch/ ./internal/trace/ ./internal/wfg/

# The seeded fault-injection sweep only (190 adversarial runs), plus the
# topology-change races, the request window, the shared node wake, the
# wake protocol (each raiser of an idle node, and a killed node
# dispatching nothing), the run queue (no node stepped twice at once, no
# replacement stepped before it is armed), exact quiescence and the intake hold's liveness
# and window bound five times over, the progress watchdog's stall
# classification 20 times, and the simulator's mismatched-root broadcast
# 300 times.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestTransport|TestCrash|TestTopology' ./internal/fault/ ./internal/tbon/
	$(GO) test -race -count=5 -run 'TestRequestWindow|TestRequestRecordsFreedByWait|TestNodeWake|TestWakeFor|TestKilledNodeDispatchesNothing|TestQuiescenceIsExact|TestNodeStepsNeverOverlap|TestReplacementNotSteppedBeforeArm' ./internal/dws/ ./internal/tbon/
	$(GO) test -race -count=5 -run 'TestHold' ./internal/tbon/ ./must/
	$(GO) test -race -count=20 -run 'TestChaos.*Stall|Watchdog' ./internal/fault/ ./internal/detect/
	$(GO) test -race -count=300 -run TestCollectiveRootMismatchReported ./must/

# Short shard: unit tests plus a small chaos slice; skips `go run` smoke tests.
short:
	$(GO) test -short -race ./...

# Native Go fuzzing: the reliable-transport resequencer and the TCP wire
# frame decoder (30s each by default; override with FUZZTIME=5m etc.).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzResequence -fuzztime=$(FUZZTIME) -run '^$$' ./internal/tbon/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire/

# The multi-tenant service shard: session/service/API suites, the
# journal-GC concurrency contract, and the kill -9 restart drill.
service-soak:
	$(GO) test -race -count=1 ./internal/session/ ./cmd/mustserve/
	$(GO) test -race -count=5 -run 'TestConcurrentAppendAndCheckpoint|TestFenceCutsOffConcurrentStaleWriter' ./internal/journal/

# Resource-governance shard: governor unit tests, the budget-equivalence
# chaos sweep, tiny-budget degradation drills, the stalled-consumer memory
# bound, and the overload-abort leak churn; then the two burst-gate drills
# five and twenty times over.
overload:
	$(GO) test -race -count=1 -run 'TestOverload|TestWireTCPBackpressure|TestMsgCost|TestGovernor|TestSendqByteCap' ./internal/fault/ ./internal/tbon/
	$(GO) test -race -count=5 -run 'TestOverloadTinyBudgetDegradesHonestly|TestOverloadStalledConsumerBoundsMemory' ./internal/fault/
	$(GO) test -race -count=20 -run 'TestOverloadTinyBudgetDegradesHonestly|TestOverloadStalledConsumerBoundsMemory' ./internal/fault/

# The benchmark harness is a nested module (bench/go.mod) that tier-1 does
# not compile: vet it and run its unit tests against this tree. The
# benchmark itself is `bash bench/run.sh` (see BENCHMARK.json).
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The clean-program verdict tests, many times over: a report that is wrong
# about a clean program is the one failure a single pass hides (the
# sub-communicator false positive showed 1 run in 40), and every change to
# link latency shifts the interleavings.
soak-clean:
	$(GO) test ./internal/core ./must -run 'Clean' -count=300

# Regenerate the committed results_fig*.txt with the one figure driver
# (cmd/figures: one timing convention, every verdict checked). Each file
# starts with the scales that were run; figures 10 and 11 take one fresh
# process per scale so no scale pays for its predecessor's garbage.
FIG9_PROCS   ?= 16,32,64,128,256,512,1024,2048,4096
DETECT_PROCS ?= 16 64 256 1024 2048 4096
FIGURES       = $(GO) run ./cmd/figures
figures:
	{ echo "# scales run on this box: $(FIG9_PROCS)"; $(FIGURES) -fig 9 -procs $(FIG9_PROCS); } > results_fig9.txt
	for f in 10 11; do \
	  { echo "# scales run on this box, one fresh process each: $(DETECT_PROCS)"; \
	    for p in $(DETECT_PROCS); do $(FIGURES) -fig $$f -procs $$p || exit 1; done; } > results_fig$$f.raw && \
	  awk '!/^#/ || !seen[$$0]++' results_fig$$f.raw > results_fig$$f.txt && rm results_fig$$f.raw || exit 1; \
	done
	{ echo "# scales run on this box: 64"; $(FIGURES) -fig 12 -procs 64; } > results_fig12.txt
	{ echo "# scales run on this box: 256"; $(FIGURES) -fig 12 -procs 256 -iters 30; } > results_fig12_256.txt

ci: fmt vet build race allocs bench-test soak-clean

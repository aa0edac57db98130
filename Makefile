# Build/verify entry points. `make verify` is the pre-commit gate: build,
# vet, formatting, the full test suite, and a -race pass over the packages
# with concurrent hot paths (the obs registry, the instrumented server, and
# the parallel rollout engine in core/rl/sim), which is exactly where data
# races would hide. The rollout packages run with -short so the race pass
# stays fast; the long learning test is covered by the plain `test` target.

GO ?= go
FUZZTIME ?= 30s

# Build identity stamped into the binaries (schedinspect version, the
# build_info metric on /metrics). git describe when available, "dev" in
# tarball builds.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags '-X schedinspector/internal/version.Version=$(VERSION)'

.PHONY: all build bin vet fmt-check test test-short race bench bench-env bench-check bench-serve bench-serve-check bench-fleet bench-fleet-check equiv fuzz-smoke trace-smoke dist-smoke loop-smoke fleet-smoke verify

all: build

build:
	$(GO) build ./...

# bin builds the version-stamped command binaries into ./bin/.
bin:
	$(GO) build $(LDFLAGS) -o bin/ ./cmd/...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; fail if it prints anything.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/serve/ ./internal/rollout/ ./internal/ckpt/ ./internal/explain/ ./internal/dist/ ./internal/online/ ./internal/fleet/
	$(GO) test -race -short ./internal/core/ ./internal/rl/ ./internal/sim/

bench: bench-env
	$(GO) test -bench=. -benchmem .

# bench-env runs the Env-core benchmarks (steppable simulator vs the
# preserved seed engine) and archives the parsed results in BENCH_env.json.
bench-env:
	$(GO) test -run '^$$' -bench 'EnvInspected|LegacyInspected' -benchmem ./internal/sim/ \
		| $(GO) run ./cmd/benchjson -o BENCH_env.json
	$(GO) test -run '^$$' -bench 'BenchmarkEnvStep$$' -benchmem .

# bench-check reruns the Env benchmarks and gates them against the
# committed BENCH_env.json: fail on a >25% ns/op regression or on any new
# allocation in a benchmark the baseline records as allocation-free.
bench-check:
	$(GO) test -run '^$$' -bench 'EnvInspected|LegacyInspected' -benchmem ./internal/sim/ \
		| $(GO) run ./cmd/benchjson -check BENCH_env.json -tolerance 0.25

# bench-serve runs the serving-throughput benchmarks (/v1/inspect through
# Handler.ServeHTTP at 1/64/512 concurrent clients) and the
# /v1/inspect decoder benchmarks (single-pass vs encoding/json, shallow and
# deep bodies) and archives the parsed results — decisions/s, p99 latency,
# ns/op, allocs/op — in BENCH_serve.json.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkInspectC|DecodeInspect' -benchmem ./internal/serve/ \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json

# bench-serve-check reruns the serving benchmarks against the committed
# BENCH_serve.json baseline (advisory in CI: serving throughput is noisy on
# shared runners, so regressions warn rather than gate).
bench-serve-check:
	$(GO) test -run '^$$' -bench 'BenchmarkInspectC|DecodeInspect' -benchmem ./internal/serve/ \
		| $(GO) run ./cmd/benchjson -check BENCH_serve.json -tolerance 0.25

# bench-fleet runs the fleet-plane benchmarks (exposition parse, full
# HTTP scrape, /v1/fleet aggregation) and archives the parsed results in
# BENCH_fleet.json.
bench-fleet:
	$(GO) test -run '^$$' -bench 'Fleet' -benchmem ./internal/fleet/ \
		| $(GO) run ./cmd/benchjson -o BENCH_fleet.json

# bench-fleet-check reruns the fleet benchmarks against the committed
# BENCH_fleet.json baseline (advisory in CI, same as bench-serve-check).
bench-fleet-check:
	$(GO) test -run '^$$' -bench 'Fleet' -benchmem ./internal/fleet/ \
		| $(GO) run ./cmd/benchjson -check BENCH_fleet.json -tolerance 0.25

# equiv runs the golden equivalence suites that pin the Env/wave engines to
# the verbatim seed implementations, the rollout loop at every window and
# worker count to one worker with a window of one, concurrent /v1/inspect
# requests to sequential Explain calls, and the distributed engine's
# replicas to the single-process trainer — bit for bit, under the race
# detector. The trainer's baseline arm runs through the rollout driver too,
# so the legacy-trainer oracle pins it as well. The PPO update is pinned
# the same way: internal/rl's frozen digest of the per-sample update (amd64
# bits) and, on every architecture, internal/nn's batch kernels against the
# per-sample Forward/Backward.
equiv:
	$(GO) test -race -run 'Equiv|BatchBitIdentical' -count=1 ./internal/sim/ ./internal/rollout/ ./internal/core/ ./internal/serve/ ./internal/dist/ ./internal/rl/ ./internal/nn/

# trace-smoke exercises the decision flight recorder end to end at smoke
# scale: a tiny training run records a .ftrace flight trace; every explain
# query plus the expreport reject plot must run clean over it, it must
# convert to JSONL offline, and the converted file must answer a query too.
# The same run in native feature mode (102 features: records and header
# that outgrow the ring's initial slots) must record a non-zero number of
# decisions.
trace-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) run $(LDFLAGS) ./cmd/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 1 -batch 4 -seqlen 64 -seed 42 \
		-flight $$tmp/flight.ftrace -model $$tmp/model.ckpt && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.ftrace && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.ftrace -feature-stats && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.ftrace -top-rejected 5 && \
	$(GO) run ./cmd/expreport -rejects $$tmp/flight.ftrace && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/flight.ftrace -convert $$tmp/converted.jsonl && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/converted.jsonl -feature-stats && \
	$(GO) run $(LDFLAGS) ./cmd/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 1 -batch 4 -seqlen 64 -seed 42 -features native \
		-flight $$tmp/native.ftrace -model $$tmp/native.ckpt && \
	$(GO) run ./cmd/schedinspect explain -in $$tmp/native.ftrace \
		| grep -E ': [1-9][0-9]* decisions .* native features' && \
	rm -rf $$tmp

# dist-smoke proves the distributed engine end to end at the process
# level: a single-process train and a 2-worker and a 3-worker train-worker
# fleet over unix sockets, same seed and config, must write byte-identical
# model files — and every worker rank must agree. Three ranks split the
# batch of 4 as 2/1/1, so the gradient exchange carries unaligned shards.
# cmp is the whole oracle.
dist-smoke: bin
	@set -e; tmp=$$(mktemp -d); \
	run="-trace SDSC-SP2 -jobs 2000 -epochs 2 -batch 4 -seqlen 64 -seed 42"; \
	./bin/schedinspect train $$run -model $$tmp/single.ckpt; \
	for world in 2 3; do \
		peers=$$tmp/w0.sock; \
		for r in $$(seq 1 $$((world-1))); do peers=$$peers,$$tmp/w$$r.sock; done; \
		pids=; \
		for r in $$(seq 1 $$((world-1))); do \
			./bin/schedinspect train-worker $$run -world $$world -rank $$r -peers $$peers \
				-model $$tmp/rank$$r.ckpt & pids="$$pids $$!"; \
		done; \
		./bin/schedinspect train-worker $$run -world $$world -rank 0 -peers $$peers \
			-model $$tmp/rank0.ckpt; \
		for p in $$pids; do wait $$p; done; \
		for r in $$(seq 0 $$((world-1))); do cmp $$tmp/single.ckpt $$tmp/rank$$r.ckpt; done; \
		echo "dist-smoke: $$world-worker model bytes identical to single-process"; \
		rm -f $$tmp/rank*.ckpt; \
	done; \
	rm -rf $$tmp

# loop-smoke proves the online continual-learning loop end to end at the
# process level: train a tiny model, serve it with inspectord -online on a
# sub-second cycle, drive synthetic /v1/inspect traffic through it, and
# require the loop to tail the decisions, retrain a candidate, shadow-
# evaluate it, and reach a clean promote-or-reject verdict — with serving
# uninterrupted throughout and the generation gauge consistent between
# /metrics and /v1/online/status (cmd/loopsmoke holds the assertions).
# SMOKEDIR overrides the scratch dir so CI can upload the flight trace and
# final status JSON as failure artifacts; set KEEP_SMOKEDIR=1 to skip the
# cleanup.
LOOPSMOKE_ADDR ?= 127.0.0.1:18642
loop-smoke: bin
	@set -e; dir="$(SMOKEDIR)"; [ -n "$$dir" ] || dir=$$(mktemp -d); mkdir -p "$$dir"; \
	./bin/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 1 -batch 4 -seqlen 64 -seed 42 -model $$dir/model.ckpt; \
	./bin/inspectord -model $$dir/model.ckpt -addr $(LOOPSMOKE_ADDR) -seed 7 \
		-online -online-interval 500ms -online-min-window 256 \
		-online-dir $$dir/promoted -flight $$dir/serve.ftrace \
		>$$dir/inspectord.log 2>&1 & daemon=$$!; \
	trap 'kill $$daemon 2>/dev/null; wait $$daemon 2>/dev/null' EXIT; \
	rc=0; ./bin/loopsmoke -addr http://$(LOOPSMOKE_ADDR) -seed 1 \
		-status-out $$dir/online-status.json || rc=$$?; \
	kill $$daemon 2>/dev/null; wait $$daemon 2>/dev/null || true; trap - EXIT; \
	if [ $$rc -ne 0 ]; then echo "--- inspectord.log ---"; cat $$dir/inspectord.log; exit $$rc; fi; \
	[ -n "$(KEEP_SMOKEDIR)$(SMOKEDIR)" ] || rm -rf $$dir

# fleet-smoke proves the fleet observability plane end to end at the
# process level: an inspectord running the online loop, two train-workers
# exchanging deltas over unix sockets and exposing -metrics-addr, and a
# `schedinspect fleet` daemon scraping all three. cmd/fleetsmoke drives
# /v1/inspect traffic and holds the assertions: every target up with
# derived rates, dist metrics aggregated across both workers, a windowed
# histogram quantile, the rank-straggler rule evaluated against real
# per-rank data, and at least one online candidate verdict surfaced
# through /v1/online/history into /v1/fleet. The `-once` text mode runs
# last as the exit-code check. SMOKEDIR/KEEP_SMOKEDIR as in loop-smoke.
FLEETSMOKE_INSP ?= 127.0.0.1:18652
FLEETSMOKE_W0 ?= 127.0.0.1:18653
FLEETSMOKE_W1 ?= 127.0.0.1:18654
FLEETSMOKE_ADDR ?= 127.0.0.1:18655
FLEETSMOKE_TARGETS = inspectord=$(FLEETSMOKE_INSP),w0=$(FLEETSMOKE_W0),w1=$(FLEETSMOKE_W1)
fleet-smoke: bin
	@set -e; dir="$(SMOKEDIR)"; [ -n "$$dir" ] || dir=$$(mktemp -d); mkdir -p "$$dir"; \
	./bin/schedinspect train -trace SDSC-SP2 -jobs 2000 \
		-epochs 1 -batch 4 -seqlen 64 -seed 42 -model $$dir/model.ckpt; \
	./bin/inspectord -model $$dir/model.ckpt -addr $(FLEETSMOKE_INSP) -seed 7 \
		-online -online-interval 500ms -online-min-window 256 \
		-online-dir $$dir/promoted >$$dir/inspectord.log 2>&1 & insp=$$!; \
	./bin/schedinspect train-worker -trace SDSC-SP2 -jobs 2000 \
		-epochs 100000 -batch 4 -seqlen 64 -seed 42 \
		-world 2 -rank 0 -peers $$dir/w0.sock,$$dir/w1.sock \
		-metrics-addr $(FLEETSMOKE_W0) -model $$dir/rank0.ckpt \
		>$$dir/w0.log 2>&1 & w0=$$!; \
	./bin/schedinspect train-worker -trace SDSC-SP2 -jobs 2000 \
		-epochs 100000 -batch 4 -seqlen 64 -seed 42 \
		-world 2 -rank 1 -peers $$dir/w0.sock,$$dir/w1.sock \
		-metrics-addr $(FLEETSMOKE_W1) -model $$dir/rank1.ckpt \
		>$$dir/w1.log 2>&1 & w1=$$!; \
	./bin/schedinspect fleet -targets $(FLEETSMOKE_TARGETS) \
		-addr $(FLEETSMOKE_ADDR) -interval 1s -window 30s \
		>$$dir/fleet.log 2>&1 & fl=$$!; \
	trap 'kill $$insp $$w0 $$w1 $$fl 2>/dev/null; wait 2>/dev/null' EXIT; \
	rc=0; ./bin/fleetsmoke -fleet http://$(FLEETSMOKE_ADDR) \
		-inspectord http://$(FLEETSMOKE_INSP) -seed 1 \
		-out $$dir/fleet-status.json || rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		./bin/schedinspect fleet -once -targets $(FLEETSMOKE_TARGETS) \
			-interval 1s || rc=$$?; fi; \
	kill $$insp $$w0 $$w1 $$fl 2>/dev/null; wait 2>/dev/null || true; trap - EXIT; \
	if [ $$rc -ne 0 ]; then for f in inspectord w0 w1 fleet; do \
		echo "--- $$f.log ---"; cat $$dir/$$f.log; done; exit $$rc; fi; \
	[ -n "$(KEEP_SMOKEDIR)$(SMOKEDIR)" ] || rm -rf $$dir

# fuzz-smoke gives every fuzz target a short budget (override with
# FUZZTIME=...) — enough to catch shallow parser/decoder regressions, and
# (FuzzEnvStep) a simulator that hangs, breaks an invariant or replays a
# snapshot differently, on every CI run without turning the pipeline into a
# fuzzing campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSWF$$' -fuzztime $(FUZZTIME) ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTrainerCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFTrace$$' -fuzztime $(FUZZTIME) ./internal/explain/
	$(GO) test -run '^$$' -fuzz '^FuzzParseProm$$' -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInspect$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzFloatToken$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReduce$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzEnvStep$$' -fuzztime $(FUZZTIME) ./internal/sim/

verify: build vet fmt-check race test

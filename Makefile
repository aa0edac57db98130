# Build/verify entry points. `make verify` is the pre-commit gate: build,
# vet, formatting, the full test suite, and a -race pass over the packages
# with concurrent hot paths (the obs registry, the instrumented server, and
# the parallel rollout engine in core/rl/sim), which is exactly where data
# races would hide. The rollout packages run with -short so the race pass
# stays fast; the long learning test is covered by the plain `test` target,
# as are cmd/'s process tests (train-worker meshes, inspectord's online loop
# under a fleet daemon, the flight recorder through the CLI).

GO ?= go
FUZZTIME ?= 30s

# Build identity stamped into the binaries (schedinspect version, the
# build_info metric on /metrics). git describe when available, "dev" in
# tarball builds.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags '-X schedinspector/internal/version.Version=$(VERSION)'

.PHONY: all build bin vet fmt-check test test-short race equiv fuzz-smoke verify

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

# equiv runs the golden equivalence suites that pin the Env/wave engines to
# the verbatim seed implementations, the rollout loop at every window and
# worker count to one worker with a window of one, concurrent /v1/inspect
# requests to sequential Explain calls, and the distributed engine's
# replicas to the single-process trainer — bit for bit, under the race
# detector. The trainer's baseline arm runs through the rollout driver too,
# so the legacy-trainer oracle pins it as well. The PPO update is pinned
# the same way: internal/rl's frozen digest of the per-sample update (amd64
# bits) and, on every architecture, internal/nn's batch kernels and rl's
# many-row policy pass against the per-sample Forward/Backward. The
# RLScheduler baseline's training is pinned to its seed.
equiv:
	$(GO) test -race -run 'Equiv|BatchBitIdentical' -count=1 ./internal/sim/ ./internal/rollout/ ./internal/core/ ./internal/serve/ ./internal/dist/ ./internal/rl/ ./internal/nn/ ./internal/rlsched/

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
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSONL$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzRingJSONL$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzParseProm$$' -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInspect$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSimulate$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzFloatToken$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReduce$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzEnvStep$$' -fuzztime $(FUZZTIME) ./internal/sim/

verify: build vet fmt-check race test

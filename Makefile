GO ?= go

.PHONY: all help build test vet lint specvet race race-short experiments-quick fuzz-short chaos-short chaos crash-short serve-short bench-baseline bench-trajectory ci clean

all: build

# help lists the targets worth knowing about.
help:
	@echo "mdf targets:"
	@echo "  build             compile everything"
	@echo "  test              go test ./..."
	@echo "  vet               go vet ./... (repository and hostbench/)"
	@echo "  lint              mdflint: determinism, unit and concurrency rules (exits nonzero on findings)"
	@echo "  specvet           mdfplan: canonical-form + plan-verifier gate on every committed spec"
	@echo "  race              full test suite under the race detector"
	@echo "  race-short        focused -race -short -count=1 gate on the concurrent packages (service, engine, scheduler)"
	@echo "  experiments-quick regenerate the resilience experiment CSVs in quick mode"
	@echo "  fuzz-short        brief fuzz runs of the JSON parsers"
	@echo "  chaos-short       deterministic 50-trial chaos sweep, run twice and compared"
	@echo "  chaos             long randomized chaos sweep (CHAOS_SEED, CHAOS_TRIALS)"
	@echo "  crash-short       kill-and-restart sweep at every journal record boundary, run twice and compared"
	@echo "  serve-short       service-layer tests (admission, quotas, drain, HTTP)"
	@echo "  bench-baseline    regenerate BENCH_*.json and fail on byte drift"
	@echo "  bench-trajectory  regenerate BENCH_*.json and fail if any series regresses past MDFSTAT_THRESHOLD (mdfstat)"
	@echo "  ci                the merge gate: vet lint specvet build race race-short chaos-short crash-short experiments-quick serve-short bench-trajectory bench-baseline"

build:
	$(GO) build ./...

# vet also vets the host-time benchmark (hostbench/, its own module), so a
# change to an API it imports fails here rather than in the benchmark.
vet:
	$(GO) vet ./...
	GOFLAGS= GOPROXY=off $(GO) -C hostbench vet ./...

# lint runs mdflint, the repo's determinism, unit-discipline and
# concurrency-safety static analyzer (see ARCHITECTURE.md "Determinism
# rules", "Unit types and semantic rules" and "Concurrency rules"). It
# exits nonzero on any finding; -stale-allows additionally audits
# suppression comments.
lint:
	$(GO) run ./cmd/mdflint -stale-allows ./...

# specvet runs mdfplan, the plan-level verifier (see ARCHITECTURE.md "Spec
# canonical form and plan vetting"), over every committed spec document:
# examples and the canonical golden fixtures must be in canonical form,
# pass the full rule battery, and carry no stale allow entries. The seeded
# defect fixtures under internal/plan/testdata are deliberately excluded —
# they exist to be condemned.
specvet: build
	$(GO) run ./cmd/mdfplan -canonical -stale-allows \
		examples/specs/*.json internal/spec/testdata/canonical/*.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-short is the focused race gate on the packages with real
# concurrency: the service (step loop vs HTTP surface), the engine
# (context cancellation) and the scheduler. -count=1 defeats the test
# cache so the race detector actually runs on every invocation. Part of ci.
race-short:
	$(GO) test -race -short -count=1 ./internal/service ./internal/engine ./internal/scheduler

# Quick-mode regeneration of the resilience experiments: stragglers,
# recovery, and the fault-rate reliability sweep.
experiments-quick: build
	$(GO) run ./cmd/mdfbench -exp stragglers -quick -seeds 1 -csv
	$(GO) run ./cmd/mdfbench -exp recovery -quick -seeds 1 -csv
	$(GO) run ./cmd/mdfbench -exp reliability -quick -seeds 1 -csv

# fuzz-short runs the JSON-parser fuzz targets briefly on top of their
# checked-in corpora (testdata/fuzz); longer runs use -fuzztime directly.
fuzz-short:
	$(GO) test ./internal/spec -run='^$$' -fuzz=FuzzParse -fuzztime=5s
	$(GO) test ./internal/spec -run='^$$' -fuzz=FuzzCanonical -fuzztime=5s
	$(GO) test ./internal/faults -run='^$$' -fuzz=FuzzParse -fuzztime=5s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=5s

# chaos-short is the deterministic chaos gate: a fixed-seed 50-trial sweep
# (random cluster + workload + fault plan per trial, golden-vs-faulted
# oracles; see ARCHITECTURE.md "Chaos testing") run twice and compared
# byte-for-byte, proving both that all oracles pass and that the harness and
# the engine under it are deterministic. Part of ci.
chaos-short: build
	$(GO) run ./cmd/mdfchaos -trials 50 -seed 1 -repro .chaos-repro.json > .chaos-short-a.log
	$(GO) run ./cmd/mdfchaos -trials 50 -seed 1 -repro .chaos-repro.json > .chaos-short-b.log
	cmp .chaos-short-a.log .chaos-short-b.log
	@tail -n 1 .chaos-short-a.log
	@rm -f .chaos-short-a.log .chaos-short-b.log

# chaos is the long randomized sweep for nightly runs; vary the seed to
# explore new fault schedules: CHAOS_SEED=$$RANDOM make chaos. A violation
# leaves a shrunk chaos-repro.json behind for replay with
# `mdfchaos -replay` or `mdfrun -faults`.
CHAOS_SEED ?= 1
CHAOS_TRIALS ?= 1000
chaos: build
	$(GO) run ./cmd/mdfchaos -trials $(CHAOS_TRIALS) -seed $(CHAOS_SEED) -repro chaos-repro.json

# crash-short is the crash-consistency gate: a fixed-seed sweep that kills
# and restarts a durable mdfserve at every journal record boundary — with
# seeded torn tails, journal bit flips and checkpoint corruption — and
# asserts each recovered run matches the uninterrupted golden run exactly
# (see ARCHITECTURE.md "Durability and crash recovery"). The sweep runs
# twice into separate state roots; the logs must compare byte-for-byte and
# the golden journals of the two runs must be identical, proving the
# durable path itself is deterministic. Part of ci.
crash-short: build
	rm -rf .crash-a .crash-b
	$(GO) run ./cmd/mdfchaos -crash -trials 50 -seed 1 -state-root .crash-a > .crash-short-a.log
	$(GO) run ./cmd/mdfchaos -crash -trials 50 -seed 1 -state-root .crash-b > .crash-short-b.log
	cmp .crash-short-a.log .crash-short-b.log
	@for d in .crash-a/trial-*/golden/journal; do \
		diff -r $$d .crash-b/$${d#.crash-a/} || exit 1; \
	done
	@tail -n 1 .crash-short-a.log
	@rm -rf .crash-a .crash-b .crash-short-a.log .crash-short-b.log

# serve-short exercises the mdfserve service layer: admission control,
# quotas, deadlines, quarantine, drain/checkpoint and the HTTP surface
# (see ARCHITECTURE.md "Service layer"). Part of ci.
serve-short:
	$(GO) test ./internal/service -count=1

# bench-baseline regenerates every committed BENCH_<exp>.json baseline in
# quick mode and fails if any bytes drift: a performance- or
# determinism-affecting change must regenerate the baselines in the same
# commit. Part of ci.
bench-baseline: build
	rm -rf .bench-prev && mkdir .bench-prev && cp BENCH_*.json .bench-prev/
	$(GO) run ./cmd/mdfbench -exp all -quick -seeds 1 -json
	@for f in BENCH_*.json; do cmp $$f .bench-prev/$$f || exit 1; done
	@rm -rf .bench-prev

# bench-trajectory is the performance-trajectory gate: regenerate every
# experiment in quick mode and diff each artifact against the committed
# baseline with mdfstat, failing when any series regresses past the
# threshold (default 5%). Unlike bench-baseline's byte compare this gate
# names the series that moved and tolerates improvements, so it stays
# useful while baselines are being re-rolled: run it before bench-baseline
# to see *what* regressed, not just *that* bytes changed. Part of ci.
MDFSTAT_THRESHOLD ?= 5
bench-trajectory: build
	rm -rf .bench-traj && mkdir .bench-traj && cp BENCH_*.json .bench-traj/
	$(GO) run ./cmd/mdfbench -exp all -quick -seeds 1 -json
	@for f in BENCH_*.json; do \
		$(GO) run ./cmd/mdfstat -threshold $(MDFSTAT_THRESHOLD) .bench-traj/$$f $$f || exit 1; \
	done
	@rm -rf .bench-traj

# ci is the gate a change must pass before merging.
ci: vet lint specvet build race race-short chaos-short crash-short experiments-quick serve-short bench-trajectory bench-baseline

clean:
	$(GO) clean ./...

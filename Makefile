GO ?= go

# Determinism-gated experiments: each <exp>-det target (generated below)
# replays experiment <exp> twice and diffs against results/<exp>.json.
DET_EXPS := fabric scale grayfail slo dedup mq integrity snapshot spans
DET_TARGETS := $(addsuffix -det,$(DET_EXPS))

.PHONY: tier1 ci vet fmt-check build test race race-full chaos crash fuzz-smoke hostmem-long bench bench-smoke bench-digest bench-headroom profile counts cover

# tier1 is the seed acceptance gate: everything must build and pass.
tier1: build test

# ci is the full hygiene gate. race-full is the whole suite under the race
# detector (4 m 40 s on the 2-core box since host memory and the medium are
# backed lazily; `make race` is its -short form for a quick look). crash runs
# the full 64-point crash-recovery harness plus the exhaustive journal
# crash-point sweep; test runs the whole suite without the race detector
# (including the long tests -short skips, e.g. the golden experiment run);
# bench-smoke covers the nested benchmark module the root test run cannot see;
# bench-digest holds the benchmark's virtual clock to the checked-in digests;
# fuzz-smoke gives every native fuzz target ten seconds; hostmem-long is the
# allocator's differential test at the size tier-1 runs an eighth of.
ci: vet fmt-check build test bench-smoke bench-digest race-full crash fuzz-smoke hostmem-long $(DET_TARGETS)

# vet covers the nested benchmark module too, which the root ./... never sees.
vet:
	$(GO) vet ./...
	cd benchmarks/nescperf && $(GO) vet ./...

# fmt-check fails when any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race skips what -short skips (the full-size chaos soak, the golden experiment
# run); not part of ci, which runs race-full.
race:
	$(GO) test -race -short ./...

# race-full is the entire suite (golden experiment run included) under the
# race detector.
race-full:
	$(GO) test -race ./...

# chaos runs the full-size chaos soaks (loud faults and silent-corruption
# injection, each with a same-seed determinism replay).
chaos:
	$(GO) test -run TestChaosSoak -v .

# crash runs the crash-recovery harness (64 seeded power-cut points over the
# public API) and the exhaustive extfs journal crash-point sweep.
crash:
	$(GO) test -run 'TestCrash' -v .
	$(GO) test -run 'TestJournalCrashSweep' -v ./internal/extfs

# fuzz-smoke runs every native fuzz target it finds for ten seconds on top of
# its checked-in corpus (testdata/fuzz): the extent-tree walk step over node
# bytes the host wrote, and the controller's fetch stage over descriptor bytes
# the guest wrote. `go test -fuzz` takes one target in one package per run.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

# hostmem-long runs the allocator's differential test against its reference
# model at full size (200k steps, ≈ 15 s); `go test` runs the 40k-step size.
hostmem-long:
	$(GO) test -count=1 -tags hostmemlong -run TestAllocatorMatchesReferenceModelLong ./internal/hostmem

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the tests of the nested benchmark module, which
# `go test ./...` at the root never sees: every nescperf workload at smoke
# size, and BENCHMARK.json still generated from the tables in its source.
bench-smoke:
	cd benchmarks/nescperf && $(GO) test ./...

# bench-digest proves a change did not move the virtual clock: it builds
# nescperf once through benchmarks/run.sh, runs every BENCHMARK.json workload
# at --seconds 2 on seeds 1 and 7, and fails unless every `# sim_digest` equals
# the one in results/bench_digests.txt and no operation failed. The run's own
# exit status is not consulted: it also trips on harness.verify_frac (printed
# in each `# workload` line), a host-time self-check that says nothing about
# the virtual clock. A change that means to move the modelled behaviour
# replaces the file with .bench_build/bench_digests.txt and says so.
bench-digest:
	@bash benchmarks/run.sh -print-benchmark-json > /dev/null
	@rm -f .bench_build/bench_digests.txt
	@for seed in 1 7; do \
		for w in $$(grep -B1 '"why":' BENCHMARK.json | sed -n 's/.*"name": "\(.*\)",/\1/p'); do \
			out=$$(.bench_build/nescperf --workload $$w --seed $$seed --seconds 2 --trace 0); \
			echo "$$out" | grep -E '^# (workload|check failed)'; \
			echo "$$out" | grep -q '"failed":0,' || { echo "bench-digest: $$w seed $$seed: operations failed"; exit 1; }; \
			echo "$$out" | sed -n "s/^# sim_digest /$$w seed $$seed seconds 2 /p" >> .bench_build/bench_digests.txt; \
		done; \
	done
	@diff results/bench_digests.txt .bench_build/bench_digests.txt
	@echo "the benchmark's sim_digests match results/bench_digests.txt"

# bench-headroom is the tier-2 check (not part of ci) every perf PR needs until
# ROADMAP item 1(a) lands: the harness marks a run incorrect when its own
# stamp/verify time reaches 5 % of the measured wall, so a faster simulator
# walks into the limit. It runs the three workloads where that share is
# largest five times each, exactly as the driver does (BENCHMARK.json's
# command and run_seconds), prints min/median/max of harness.verify_frac from
# the `# workload` line, and fails on an incorrect run or a maximum >= 0.045.
bench-headroom:
	@secs=$$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json); \
	for w in raw-small-qd1 raw-stream-large tenants-qd32; do \
		fracs=; \
		for i in 1 2 3 4 5; do \
			out=$$(bash benchmarks/run.sh --workload $$w --seed 1 --seconds $$secs --trace 0) || true; \
			echo "$$out" | tail -1 | grep -q '^{"correct":true,' || { echo "bench-headroom: $$w run $$i is incorrect"; echo "$$out" | grep '^#'; exit 1; }; \
			fracs="$$fracs $$(echo "$$out" | sed -n 's/^# workload .* verify_frac //p')"; \
		done; \
		echo $$fracs | tr ' ' '\n' | sort -g | awk -v w=$$w '{v[NR]=$$1} END {printf "%-17s verify_frac min %s median %s max %s\n", w, v[1], v[3], v[5]; exit !(v[5] < 0.045)}' \
			|| { echo "bench-headroom: $$w has verify_frac >= 0.045 (the harness fails a run at 0.05)"; exit 1; }; \
	done

# counts prints the sizes ROADMAP aim 2 tracks, for CHANGES.md and ROADMAP to
# quote: net non-test Go lines outside benchmarks/, the same count per layer of
# the package graph (layers_test.go logs one line per layer with its packages;
# the harness is bench plus everything outside internal/), and the fields of
# every configuration struct the option census checks (census_test.go logs one
# line per struct: fields = options + calibrated costs + nested structs, then
# the field names, which this target drops).
counts:
	@lines() { find "$$@" -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' -not -path './.*' | xargs cat | wc -l; }; \
	total=$$(lines .); rest=$$total; \
	echo "non-test Go lines outside benchmarks/: $$total"; \
	$(GO) test -count=1 -run 'TestLayers' -v . | sed -n 's/^.*layers: \(.*\) = \(.*\)/\1 \2/p' | { \
		while read layer pkgs; do \
			[ $$layer = harness ] && break; \
			n=$$(lines $$(printf 'internal/%s ' $$pkgs)); rest=$$((rest - n)); \
			printf '  %-9s %6d lines\n' $$layer $$n; \
		done; \
		printf '  %-9s %6d lines (bench, the root package, cmd/, examples/)\n' harness $$rest; }
	@$(GO) test -count=1 -run 'TestEveryOptionHasASetter' -v . | sed -n 's/^.*census: \(.*nested\):.*/\1/p'

# cover is the tier-2 merged coverage run (not part of ci): every package's
# tests instrument every package, so a line counts as covered whichever
# package's test reaches it. Prints the total; `go tool cover -func=.cover.out`
# (or -html) lists what no test executes. CHANGES.md and ROADMAP quote the
# total beside `make counts`.
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=.cover.out ./... > /dev/null
	@$(GO) tool cover -func=.cover.out | grep '^total:'

# <exp>-det regenerates one experiment twice in separate processes and fails
# unless both runs and the checked-in results/<exp>.json are byte-identical
# (same seed => identical simulation). One parameterized rule covers every
# determinism-gated experiment:
#   fabric   - mirroring, failover, resilver, live VF migration
#   scale    - massive tenancy (lazy VF core, queue-pair pool, shadow doorbells)
#   grayfail - fail-slow injection, hedged reads, deadline + admission control
#   slo      - latency attribution, burn alerts, anomaly scoreboard
#   dedup    - content-addressed tier (dedup ratio, first touch, fleet fork)
#   mq, integrity, snapshot, spans - the other checked-in results/<exp>.json
.PHONY: $(DET_TARGETS)
define det-rule
$(1)-det:
	@rm -rf .$(1)-det && mkdir -p .$(1)-det/a .$(1)-det/b
	@$$(GO) run ./cmd/nescbench -exp $(1) -json .$(1)-det/a > /dev/null
	@$$(GO) run ./cmd/nescbench -exp $(1) -json .$(1)-det/b > /dev/null
	@cmp .$(1)-det/a/$(1).json .$(1)-det/b/$(1).json
	@cmp .$(1)-det/a/$(1).json results/$(1).json
	@rm -rf .$(1)-det
	@echo "results/$(1).json is deterministic and current"
endef
$(foreach e,$(DET_EXPS),$(eval $(call det-rule,$(e))))

# profile is the tier-2 attribution report: run each experiment on its own
# with the causal-attribution sink armed, write its per-{vf,op} latency
# budget table under .profile/ (gitignored; nothing reads the tables back, so
# none is checked in), and print the experiment's one-line p99 verdict — the
# row with the worst tail and the segment that sets it apart from the median.
profile:
	@mkdir -p .profile
	@$(GO) build -o .profile/nescbench ./cmd/nescbench
	@for e in $$(.profile/nescbench -list | cut -d' ' -f1); do \
		.profile/nescbench -exp $$e -attrib .profile/$$e.json 2>&1 >/dev/null | grep '^p99 verdict' \
			|| echo "p99 verdict [$$e]: no device requests attributed"; \
	done

GO ?= go

.PHONY: tier1 ci vet fmt-check build test race race-full chaos soak-seeds crash fuzz-smoke hostmem-long bench bench-smoke bench-digest sink-digest rebaseline bench-headroom bench-scaling bench-compare profile counts cover

# tier1 is the seed acceptance gate: everything must build and pass.
tier1: build test

# ci is the full hygiene gate. test runs the whole suite without the race
# detector, including the long tests -short skips, e.g. the golden experiment
# run (internal/bench), which runs every experiment once and holds its text,
# its results/<exp>.json and its paper shapes; race-full is the whole suite
# under the race detector but the golden experiment run (`make race` is its
# -short form for a quick look). crash runs the full 64-point crash-recovery
# harness plus the exhaustive journal crash-point sweep;
# bench-smoke covers the nested benchmark module the root test run cannot see;
# bench-digest holds the benchmark's virtual clock to the checked-in digests;
# sink-digest holds every byte the three telemetry sinks export to theirs;
# fuzz-smoke gives every native fuzz target ten seconds; hostmem-long is the
# allocator's differential test at the size tier-1 runs an eighth of.
ci: vet fmt-check build test bench-smoke bench-digest sink-digest race-full crash fuzz-smoke hostmem-long

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

# race skips what -short skips (the golden experiment run in internal/bench);
# not part of ci, which runs race-full.
race:
	$(GO) test -race -short ./...

# race-full is the entire suite under the race detector except the golden
# experiment run (internal/bench), which test runs without it: under the race
# detector it runs every experiment in one binary. The race runtime keeps what
# every finished simulated process used (≈ 25 KB: Go 1.24 ends an iter.Pull
# coroutine without racegoend), so a test binary grows with each process its
# tests spawn. The root package spawns the most and runs as three binaries, and
# a race build runs each soak row once (race_test.go); the soak binary peaks
# near 2.8 GB, the other two root binaries near 2.3 GB.
race-full:
	$(GO) test -race -skip '^TestGoldenExperimentOutputs$$' ./internal/... ./cmd/...
	$(GO) test -race -run '^TestSoak$$' .
	$(GO) test -race -run '^TestCrash' .
	$(GO) test -race -skip '^(TestSoak|TestCrash)' .

# chaos runs the soak table (chaos_test.go): every row, the last of which arms
# every feature at once, with its same-seed determinism replay.
chaos:
	$(GO) test -run '^TestSoak$$' -v .

# soak-seeds is the tier-2 measurement (not part of ci) behind ROADMAP item
# 19: TestSoakSeeds runs every soak row (or the comma-separated SOAK_ROWS)
# once per seed offset in SOAK_SEEDS (from:to, to excluded: 80 seeds past each
# row's own by default) and prints each row's pass rate and how its failures
# fall into classes. A seed that fails is a finding, not a test failure.
SOAK_SEEDS ?= 0x200:0x250
SOAK_ROWS ?=
soak-seeds:
	@$(GO) test -count=1 -timeout 0 -run '^TestSoakSeeds$$' -v . -args -soak-seeds $(SOAK_SEEDS) -soak-rows '$(SOAK_ROWS)' \
		| sed -n 's/^ *chaos_test.go:[0-9]*: row //p'

# crash runs the crash-recovery harness (64 seeded power-cut points over the
# public API) and the exhaustive extfs journal crash-point sweep.
crash:
	$(GO) test -run 'TestCrash' -v .
	$(GO) test -run 'TestJournalCrashSweep' -v ./internal/extfs

# fuzz-smoke runs every native fuzz target it finds for ten seconds on top of
# its checked-in corpus (testdata/fuzz): the extent-tree walk step over node
# bytes the host wrote, the tree's edits against a fresh build of the same
# runs, the controller's fetch stage over descriptor bytes the guest wrote, its
# shadow-doorbell chase over the producer words the guest wrote, and the host
# filesystem's mount (journal replay, inodes, overflow chains) over blocks the
# device holds. `go test -fuzz` takes one target in one package per run.
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

# sink-digest proves a change did not move what the telemetry sinks export: it
# builds nescbench and nescctl, writes the metrics, trace and attribution files
# of `-exp all` and the metrics and attribution files of `-exp dedup`, prints
# `nescctl -top` (attribution, SLO burn alerts, scoreboard), and fails unless
# the SHA-256 of each output equals the one in results/sink_digests.txt. A
# change that means to move a sink's bytes replaces the file with
# .sink_build/sink_digests.txt and says so.
sink-digest:
	@rm -rf .sink_build && mkdir -p .sink_build
	@$(GO) build -o .sink_build/nescbench ./cmd/nescbench
	@$(GO) build -o .sink_build/nescctl ./cmd/nescctl
	@cd .sink_build && \
		./nescbench -exp all -metrics all.prom -trace-json all.trace.json -attrib all.attrib.json > /dev/null 2>&1 && \
		./nescbench -exp dedup -metrics dedup.prom -attrib dedup.attrib.json > /dev/null 2>&1 && \
		./nescctl -top > top.txt && \
		sha256sum all.prom all.trace.json all.attrib.json dedup.prom dedup.attrib.json top.txt > sink_digests.txt
	@diff results/sink_digests.txt .sink_build/sink_digests.txt
	@echo "the sinks' outputs match results/sink_digests.txt"

# rebaseline is the tier-2 step (never in ci) for a change that means to move
# virtual time: it rewrites every artifact such a change moves — the golden
# results/all_experiments.txt from `nescbench -exp all` stdout, every
# results/<exp>.json that already exists from the JSON that run and one of
# `-exp dedup` write, and results/bench_digests.txt and
# results/sink_digests.txt from the files bench-digest and sink-digest build
# (a failure of theirs other than the digest diff stops it). It changes no
# check: the golden test and both digest diffs still compare as before,
# against what it wrote. Run it once, on purpose, and name every row it moved.
rebaseline:
	@rm -rf .rebaseline && mkdir -p .rebaseline/json
	@$(GO) build -o .rebaseline/nescbench ./cmd/nescbench
	@.rebaseline/nescbench -exp all -json .rebaseline/json > .rebaseline/all_experiments.txt 2> .rebaseline/all.log
	@.rebaseline/nescbench -exp dedup -json .rebaseline/json > /dev/null 2>> .rebaseline/all.log
	@cp .rebaseline/all_experiments.txt results/all_experiments.txt
	@for f in results/*.json; do \
		case $$f in results/BENCH_*) continue;; esac; \
		cp .rebaseline/json/$${f#results/} $$f || exit 1; \
	done
	@for d in bench sink; do \
		$(MAKE) --no-print-directory $$d-digest > .rebaseline/$$d.log 2>&1 || grep -q '^[<>] ' .rebaseline/$$d.log \
			|| { cat .rebaseline/$$d.log; exit 1; }; \
	done
	@cp .bench_build/bench_digests.txt results/bench_digests.txt
	@cp .sink_build/sink_digests.txt results/sink_digests.txt
	@rm -rf .rebaseline
	@git diff --stat -- results

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

# bench-scaling is the tier-2 check (not part of ci) that a workload's cost per
# op does not grow with its length: it runs translate-miss and raw-small-qd1
# through benchmarks/run.sh at BENCHMARK.json's run_seconds and at three times
# that, prints wall per op, allocs_per_op and sim_us_per_op of each run, and
# fails when a counted per-op metric (allocs_per_op, sim_us_per_op) moves more
# than 2 % between the two lengths or wall per op at 3x is more than 1.3x that
# at 1x. A run's exit status is not consulted (see bench-digest). Wall is one
# run of each, so run it again before trusting a verdict near the bound.
SCALING_WORKLOADS := translate-miss raw-small-qd1
bench-scaling:
	@secs=$$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json); \
	for w in $(SCALING_WORKLOADS); do \
		for s in $$secs $$((3 * secs)); do \
			out=$$(bash benchmarks/run.sh --workload $$w --seed 1 --seconds $$s --trace 0) || true; \
			m() { echo "$$out" | tail -1 | sed -n "s/.*\"$$1\":{\"value\":\([^,}]*\).*/\1/p"; }; \
			echo "$$w $$s $$(echo "$$out" | sed -n 's/^# workload .* ops \([0-9]*\) .*/\1/p') $$(m wall_s) $$(m allocs_per_op) $$(m sim_us_per_op)"; \
		done; \
	done | awk 'function off(a, b) { return a > b * 1.02 || b > a * 1.02 } \
		{ wall = $$4 / $$3 * 1e6; printf "%-15s %3ss %7d ops  wall %8.2f us/op  allocs %9.2f /op  sim %9.3f us/op\n", $$1, $$2, $$3, wall, $$5, $$6 } \
		!($$1 in w1) { w1[$$1] = wall; a1[$$1] = $$5; s1[$$1] = $$6; next } \
		off($$5, a1[$$1]) || off($$6, s1[$$1]) { printf "bench-scaling: %s: a counted metric per op moved more than 2%% at 3x\n", $$1; bad = 1 } \
		wall > 1.3 * w1[$$1] { printf "bench-scaling: %s: wall per op at 3x is %.2fx that at 1x (bound 1.3)\n", $$1, wall / w1[$$1]; bad = 1 } \
		END { exit bad }'

# bench-compare is the tier-2 trajectory step (not part of ci, ≈ 5 min): it runs
# the whole benchmark on seed 1 into .bench_build/BENCH_head.json and compares
# that with the newest checked-in results/BENCH_<n>.json. A change that claims
# a gain checks its own report in as results/BENCH_<n>.json.
bench-compare:
	@last=$$(ls results/BENCH_*.json | sort -t_ -k2 -n | tail -1); \
	bash benchmarks/run.sh -seed 1 -out .bench_build/BENCH_head.json > /dev/null && \
	echo "comparing $$last with .bench_build/BENCH_head.json" && \
	bash benchmarks/run.sh -compare $$last .bench_build/BENCH_head.json

# counts prints the sizes ROADMAP aim 2 tracks, for CHANGES.md and ROADMAP to
# quote: net non-test Go lines outside benchmarks/, the same count per layer of
# the package graph and, under it, per package (layers_test.go logs one line
# per layer with its packages; the harness is bench plus everything outside
# internal/), and the fields of
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
			for pkg in $$pkgs; do printf '    %-12s %6d\n' $$pkg $$(lines internal/$$pkg); done; \
		done; \
		printf '  %-9s %6d lines (bench, the root package, cmd/)\n' harness $$rest; }
	@$(GO) test -count=1 -run 'TestEveryOptionHasASetter' -v . | sed -n 's/^.*census: \(.*nested\):.*/\1/p'

# cover is the tier-2 merged coverage run (not part of ci): every package's
# tests instrument every package, so a line counts as covered whichever
# package's test reaches it. Prints the total; `go tool cover -func=.cover.out`
# (or -html) lists what no test executes. CHANGES.md and ROADMAP quote the
# total beside `make counts`.
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=.cover.out ./... > /dev/null
	@$(GO) tool cover -func=.cover.out | grep '^total:'

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

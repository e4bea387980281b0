GO ?= go

.PHONY: all build vet fmt-check lint docs-check examples-smoke test race fake-clock fuzz largek-smoke bench bench-smoke bench-test profile cover cover-gate loc loc-delta service-smoke vuln ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting is part of the gate: gofmt -l lists offenders, and any output
# fails the target.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Docs gate: every package and command must carry a godoc comment
# ("// Package ..." or "// Command ...") in a non-test file. Keeps the
# package-level documentation from rotting as the tree grows.
docs-check:
	@fail=0; \
	for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		files=$$(find "$$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go'); \
		if ! grep -qE '^// (Package|Command) ' $$files; then \
			echo "docs gate: missing package doc comment in $$dir"; fail=1; fi; \
	done; \
	if [ "$$fail" -ne 0 ]; then exit 1; fi; \
	echo "docs gate: every package and command documented"

# The README is the worked examples: build the commands once, then run
# every `go run ./cmd/...` line of README.md in order with a small -rows,
# failing on a non-zero exit or validated=false (the coordinator and its
# workers as one bounded pair; sortd/sortctl are service-smoke's).
examples-smoke:
	./scripts/readme_smoke.sh

test:
	$(GO) test ./...

# Static analysis beyond vet: staticcheck, pinned in CI so the required
# gate only changes when deliberately bumped. Offline machines without the
# tool skip with a notice instead of failing (the govulncheck pattern).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# The race wall: the pipelined engines are concurrent by construction
# (per-source receive goroutines, windowed senders, spilling receivers), so
# the race detector is part of the standard gate, not an optional extra.
# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide; the seed is printed for replay on failure.
race:
	$(GO) test -race -shuffle=on ./...

# The fake-clock gate: the live runtime inside testing/synctest bubbles,
# where the network costs exactly its modelled time (the capped Shuffle at
# its wire bound, the parallel schedule's K-fold gain). The experiment is
# Go 1.24's and the tests build only under it; a toolchain that no longer
# knows it skips with a notice. ci.sh runs the same command (ci_test.go
# holds the two equal).
fake-clock:
	@if GOEXPERIMENT=synctest $(GO) env GOEXPERIMENT >/dev/null 2>&1; then \
		GOEXPERIMENT=synctest $(GO) test -run FakeClock ./internal/cluster/; \
	else \
		echo "GOEXPERIMENT=synctest unknown to this toolchain; skipping the fake-clock gate"; \
	fi

# Short fuzz smoke over the wire- and disk-facing surfaces (chunk framing,
# packed IVs, coded packets, spill-file blocks) plus the resolvable-design
# generator, whose invariants every large-K shuffle depends on, and the
# input generator, whose bytes every replica and golden digest depends on
# (FuzzGenerateBlocks: any blocking of any row range == the per-byte
# reference), and the output order (FuzzSortOrder: any keys cut at any part
# boundaries == the stdlib sort of the whole records; FuzzMergeRuns: the
# spill merge of any runs and tail == the same). Every fuzz target in the
# tree is listed (ci_test.go checks). One shell with set -e so the first failing fuzz target fails
# the whole recipe fast — no later invocation can mask it. CI-friendly:
# seconds, not hours.
fuzz:
	set -e; \
	for target in FuzzOpenChunk FuzzChunkStream FuzzUnpackIV FuzzDecodePacket FuzzDecodePacketChunk FuzzFrameOpen; do \
		$(GO) test -run=Fuzz -fuzz="^$$target\$$" -fuzztime=5s ./internal/codec/ || exit 1; \
	done; \
	$(GO) test -run=Fuzz -fuzz='FuzzRunReader$$' -fuzztime=5s ./internal/extsort/
	$(GO) test -run=Fuzz -fuzz='FuzzMergeRuns$$' -fuzztime=5s ./internal/extsort/
	$(GO) test -run=Fuzz -fuzz=FuzzMapReduceKernels -fuzztime=5s ./internal/mapreduce/
	$(GO) test -run=Fuzz -fuzz=FuzzDesign -fuzztime=5s ./internal/placement/resolvable/
	$(GO) test -run=Fuzz -fuzz=FuzzSplitters -fuzztime=5s ./internal/partition/
	$(GO) test -run=Fuzz -fuzz=FuzzGenerateBlocks -fuzztime=5s ./internal/kv/
	$(GO) test -run=Fuzz -fuzz=FuzzSortOrder -fuzztime=5s ./internal/kv/
	$(GO) test -run=Fuzz -fuzz=FuzzJob -fuzztime=5s ./internal/cluster/

# Large-K smoke: the K=64 resolvable sort, one goroutine per rank,
# checksum-tied to the uncoded oracle. Also runs (race-enabled) inside the
# `race` target; this standalone entry is the fast local check.
largek-smoke:
	$(GO) test -run=TestLargeKResolvableMux -count=1 ./internal/cluster/

bench:
	$(GO) test -run=XXX -bench=. -benchmem ./...

# One-iteration benchmark pass: compiles and executes every benchmark once
# (including the parallel sort/scatter/codec kernels) so the bench suite
# cannot bit-rot; wired into CI. Timing output is meaningless at 1x.
bench-smoke:
	$(GO) test -run=XXX -bench=. -benchtime=1x ./...

# Where a whole job's CPU goes: one job shape of the repository benchmark
# (BenchmarkJob/<JOB>: uncoded_mem, coded_mem, uncoded_cap, coded_cap or
# uncoded_spill; each reports its Shuffle and Reduce seconds) under the
# CPU profiler, then the top frames and, last, the copy share (the flat
# shares of runtime.memmove and runtime.memclrNoHeapPointers among all
# samples) and the syscall share (the largest flat share of a Syscall6
# frame: the runtime's system call, where the kernel copies spill bytes).
# The profile and test binary go to PROFILE_DIR, outside the tree.
JOB         ?= uncoded_mem
PROFILE_DIR ?= $${TMPDIR:-/tmp}/codedterasort-profile
profile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run='^$$' -bench='^BenchmarkJob$$/^$(JOB)$$' -benchtime=20x \
		-cpuprofile=$(PROFILE_DIR)/$(JOB).prof -o $(PROFILE_DIR)/bench.test .
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/$(JOB).prof
	@$(GO) tool pprof -top $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/$(JOB).prof 2>/dev/null | awk \
		'$$6 == "runtime.memmove" { m = $$2 } $$6 == "runtime.memclrNoHeapPointers" { c = $$2 } \
		$$6 ~ /syscall\.Syscall6$$/ && !s { s = $$2 } \
		END { printf "copy share: memmove %s + memclr %s; syscall share: Syscall6 %s\n", \
			m ? m : "0%", c ? c : "0%", s ? s : "0%" }'

# The repository benchmark (bench/, a module of its own that `./...` does
# not reach) calls internal packages from its probes; its own tests build
# them and smoke-run all seven workloads, so an internal API change that
# breaks a probe fails here instead of in the benchmark driver later.
bench-test:
	cd bench && $(GO) test ./...

# Coverage summary: per-function tail plus the total line, for the CI log
# and local spot checks.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 20

# Coverage floor on the framework-critical packages: the job description
# (the one validator every entry point calls), the sort engine and its
# stage runtime, the MapReduce layer riding it, the
# multi-tenant serving layer, and the partitioner (the one component every
# reducer's balance and every splitter agreement depends on), and the two
# packages every sort in the system runs through (kv: the order-and-gather
# kernel; extsort: run generation and the merge) must keep >= 80% statement
# coverage. ci.sh keeps a copy of the list; ci_test.go holds the two equal.
COVER_GATE_PKGS = ./internal/job ./internal/coded ./internal/mapreduce ./internal/service ./internal/partition ./internal/kv ./internal/extsort
COVER_GATE_MIN  = 80
cover-gate:
	@fail=0; \
	for pkg in $(COVER_GATE_PKGS); do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover gate: no coverage figure for $$pkg"; fail=1; continue; fi; \
		ok=$$(awk "BEGIN{print ($$pct >= $(COVER_GATE_MIN)) ? 1 : 0}"); \
		if [ "$$ok" -ne 1 ]; then \
			echo "cover gate: $$pkg at $$pct% (< $(COVER_GATE_MIN)% floor)"; fail=1; \
		else \
			echo "cover gate: $$pkg at $$pct% (floor $(COVER_GATE_MIN)%)"; \
		fi; \
	done; \
	if [ "$$fail" -ne 0 ]; then exit 1; fi

# Size of the program: non-test Go lines outside the benchmark module — the
# number a simplicity PR diffs against its parent. LOC_PARENT is that
# parent's figure (the last simplicity PR's base), so the gate's log shows
# the delta the PR description quotes; bump it when the base moves.
LOC_PARENT ?= 14027
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

loc-delta:
	@n=$$($(MAKE) -s loc); echo "loc: $$n non-test lines (parent $(LOC_PARENT), $$((n - $(LOC_PARENT))))"

# End-to-end service smoke: build sortd and sortctl, start the daemon,
# run concurrent multi-tenant jobs (including an injected-fault recovery),
# scrape /metrics, and drain via SIGTERM. Every wait inside is bounded so
# the target can never hang a CI runner.
service-smoke:
	./scripts/service_smoke.sh

# Known-vulnerability scan over the module and its call graph. Part of the
# gate where the tool is installed (CI installs it); offline machines skip
# with a notice instead of failing.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

ci: loc-delta build vet fmt-check lint docs-check examples-smoke race fake-clock largek-smoke bench-test cover-gate service-smoke vuln

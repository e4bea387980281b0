#!/bin/sh
# The standard gate: build + vet + gofmt cleanliness + staticcheck (when
# installed) + docs gate (every package/command carries a godoc comment) +
# race-enabled tests in shuffled order + the bench module's own tests +
# the coverage floor + the end-to-end service smoke, plus a govulncheck
# pass against the known-vulnerability database when the tool is installed
# (CI installs it; offline machines skip with a notice).
# Equivalent to `make ci` for environments without make.
set -eux
# Program size (mirrors `make loc-delta`): non-test Go lines outside bench/,
# beside the figure of the last simplicity PR's parent.
loc_parent=15700
loc=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l)
echo "loc: $loc non-test lines (parent $loc_parent, $((loc - loc_parent)))"
go build ./...
go vet ./...
test -z "$(gofmt -l .)"
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"
fi
# Docs gate. (The examples compile smoke needs no separate step here:
# `go build ./...` and `go vet ./...` above already cover examples/.)
for dir in $(go list -f '{{.Dir}}' ./...); do
	files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
	if ! grep -qE '^// (Package|Command) ' $files; then
		echo "docs gate: missing package doc comment in $dir"
		exit 1
	fi
done
go test -race -shuffle=on ./...
# Large-K smoke (mirrors `make largek-smoke`): the K=64 resolvable sort
# over multiplexed logical ranks, checksum-tied to the uncoded oracle. The
# race run above already includes it; this re-run pins the gate by name so
# a test rename cannot silently drop the coverage.
go test -run=TestLargeKResolvableMux -count=1 ./internal/cluster/
# The repository benchmark is its own module (mirrors `make bench-test`):
# its tests build every probe against the internal packages and smoke-run
# the seven workloads, so a probe-breaking API change fails here.
(cd bench && go test ./...)
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
else
	echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi
# Coverage floor on the framework-critical packages (mirrors `make
# cover-gate`): the job description, the stage-graph runtime, the sort
# engine, the MapReduce layer, the multi-tenant serving layer, the
# partitioner, and the sort kernel and external sorter must keep >= 80%
# statement coverage.
for pkg in ./internal/job ./internal/engine ./internal/coded ./internal/mapreduce ./internal/service ./internal/partition ./internal/kv ./internal/extsort; do
	pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')
	if [ -z "$pct" ] || [ "$(awk "BEGIN{print ($pct >= 80) ? 1 : 0}")" -ne 1 ]; then
		echo "cover gate: $pkg at ${pct:-?}% (< 80% floor)"
		exit 1
	fi
	echo "cover gate: $pkg at $pct% (floor 80%)"
done
# End-to-end service smoke: sortd + sortctl, concurrent multi-tenant jobs,
# metrics scrape, SIGTERM drain. Every wait inside is bounded.
./scripts/service_smoke.sh

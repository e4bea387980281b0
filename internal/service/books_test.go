package service

import (
	"context"
	"errors"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"codedterasort/internal/cluster"
)

// waitAll waits for every job to finish.
func waitAll(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range ids {
		st, err := s.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Finished() {
			t.Fatalf("job %s still %s", id, st.State)
		}
	}
}

// submitOK submits a job that must be admitted and returns its ID.
func submitOK(t *testing.T, s *Server, tenantName string, spec cluster.Spec) string {
	t.Helper()
	st, err := s.Submit(SubmitRequest{Tenant: tenantName, Spec: spec})
	if err != nil {
		t.Fatalf("tenant %s: %v", tenantName, err)
	}
	return st.ID
}

// submitErr submits a job that must be refused: with want, or with any
// error when want is nil.
func submitErr(t *testing.T, s *Server, tenantName string, spec cluster.Spec, want error) {
	t.Helper()
	if _, err := s.Submit(SubmitRequest{Tenant: tenantName, Spec: spec}); err == nil || want != nil && !errors.Is(err, want) {
		t.Fatalf("tenant %s: %v, want %v", tenantName, err, want)
	}
}

// slowJob holds its rank slots for at least delay: rank 0 stalls after Map.
func slowJob(k int, delay time.Duration) cluster.Spec {
	s := terasortSpec(2000, 5)
	s.K = k
	s.Faults = []cluster.FaultSpec{{Rank: 0, Stage: "Map", Kind: "slow", Delay: delay}}
	return s
}

// killedJob dies at Map on its first attempt: it recovers with two attempts
// and fails with one. Its one rank has no peer to race the kill, so its
// stage log, and the metrics rolled up from it, are exact.
func killedJob(attempts int) cluster.Spec {
	return cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 1, Rows: 1000, Seed: 6, MaxAttempts: attempts,
		Faults: []cluster.FaultSpec{{Rank: 0, Stage: "Map", Kind: "kill"}}}
}

// maskTimes blanks the values that measure time rather than count events.
var maskTimes = regexp.MustCompile(`(?m)^(sortd_uptime_seconds|sortd_stage_seconds_total\{[^}]*\}) .*$`)

// TestMetricsGolden pins /metrics for a scripted history — done, failed
// and recovered jobs, both rejection causes, a backlog refusal, a spilling
// and a chunked job, a configured tenant that never submits — against
// testdata/metrics.golden, with only the timing values masked. The golden
// was rendered at commit 2690efe, when the service still kept per-tenant
// counters beside its job table; it holds no job canceled before it
// started, the one count that moved since, and its stage rollup lost the
// Pack/Encode rows when the monolithic schedule's encode moved into the
// Shuffle.
func TestMetricsGolden(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{PoolSlots: 1, MaxQueue: 2, SpillRoot: t.TempDir(),
		Now: func() time.Time { return now }, Tenants: map[string]Limits{
			"idle":    {Priority: 3},
			"metered": {RatePerSec: 0.001, Burst: 1},
			"q":       {MaxQueued: 1, MaxRunning: 1},
		}})
	defer s.Close()
	// An invalid spec names no tenant into the books.
	submitErr(t, s, "ghost", cluster.Spec{Algorithm: "nope", K: 2, Rows: 10}, nil)
	// One slot: the slow job holds it while the rest queue behind it.
	slow := submitOK(t, s, "q", slowJob(1, 500*time.Millisecond))
	waitRunning(t, s, slow)
	queued := submitOK(t, s, "q", terasortSpec(2000, 2))
	submitErr(t, s, "q", terasortSpec(100, 3), ErrQueueFull)
	chunked := cluster.Spec{Algorithm: cluster.AlgCoded, K: 3, R: 2, Rows: 3000, Seed: 4, ChunkRows: 200}
	metered := submitOK(t, s, "metered", chunked)
	submitErr(t, s, "late", terasortSpec(100, 7), ErrBacklogFull)
	waitAll(t, s, slow, queued, metered)
	submitErr(t, s, "metered", terasortSpec(100, 8), ErrRateLimited)
	spill := cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 2, Rows: 4000, Seed: 9, MemBudget: 16 << 10, Parallelism: 1}
	waitAll(t, s, submitOK(t, s, "acme", spill))
	waitAll(t, s, submitOK(t, s, "acme", killedJob(2)))
	waitAll(t, s, submitOK(t, s, "acme", killedJob(1)))

	got := maskTimes.ReplaceAllString(s.MetricsText(), "$1 <masked>")
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("metrics differ from testdata/metrics.golden; got:\n%s", got)
	}
}

// tenantLine matches one per-tenant sample of the exposition.
var tenantLine = regexp.MustCompile(`^sortd_tenant_jobs_(\w+?)(?:_total)?\{tenant="([^"]+)"(?:,(?:reason|outcome)="(\w+)")?\} (\d+)$`)

// checkBooks holds every tenant's /metrics counts to the job table: each
// admitted job is queued, running or finished once, and each submission is
// admitted or rejected.
func checkBooks(t *testing.T, s *Server) {
	t.Helper()
	counts := map[string]map[string]int64{}
	for _, line := range strings.Split(s.MetricsText(), "\n") {
		m := tenantLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if counts[m[2]] == nil {
			counts[m[2]] = map[string]int64{}
		}
		n, _ := strconv.ParseInt(m[4], 10, 64)
		counts[m[2]][strings.TrimSuffix(m[1]+"_"+m[3], "_")] = n
	}
	if len(counts) == 0 {
		t.Fatal("no tenant samples in /metrics")
	}
	for name, c := range counts {
		queued := int64(0)
		for _, st := range s.Jobs(name) {
			if st.State == StateQueued {
				queued++
			}
		}
		held := queued + c["running"] + c["finished_done"] + c["finished_failed"] + c["finished_canceled"]
		if c["admitted"] != held {
			t.Errorf("tenant %s: admitted %d, but queued %d + running %d + done %d + failed %d + canceled %d = %d",
				name, c["admitted"], queued, c["running"], c["finished_done"], c["finished_failed"], c["finished_canceled"], held)
		}
		if rej := c["rejected_rate"] + c["rejected_queue"]; c["submitted"] != c["admitted"]+rej {
			t.Errorf("tenant %s: submitted %d, but admitted %d + rejected %d", name, c["submitted"], c["admitted"], rej)
		}
	}
	if t.Failed() {
		t.Fatalf("books out of balance:\n%s", s.MetricsText())
	}
}

// TestTenantBooksBalance drives every outcome — done, failed, recovered,
// canceled while running (forced drain) and while queued (drain) — and
// both rejection causes, and holds each tenant's counts to the job table
// before and after the drain.
func TestTenantBooksBalance(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{PoolSlots: 2, DrainTimeout: 50 * time.Millisecond,
		Now: func() time.Time { return now }, Tenants: map[string]Limits{
			"a": {MaxQueued: 1},
			"c": {RatePerSec: 0.001, Burst: 1},
		}})
	defer s.Close()
	waitAll(t, s, submitOK(t, s, "a", terasortSpec(2000, 1)))
	waitAll(t, s, submitOK(t, s, "a", killedJob(2)))
	waitAll(t, s, submitOK(t, s, "a", killedJob(1)))
	// The slow job holds both slots past the drain timeout; the jobs behind
	// it never start.
	slow := submitOK(t, s, "b", slowJob(2, 2*time.Second))
	waitRunning(t, s, slow)
	submitOK(t, s, "b", terasortSpec(1000, 2))
	submitOK(t, s, "a", terasortSpec(1000, 3))
	submitErr(t, s, "a", terasortSpec(1000, 4), ErrQueueFull)
	submitOK(t, s, "c", terasortSpec(1000, 5))
	submitErr(t, s, "c", terasortSpec(1000, 6), ErrRateLimited)
	checkBooks(t, s)

	if !s.Drain() {
		t.Fatal("drain did not force-cancel the slow job")
	}
	for _, st := range s.Jobs("") {
		if st.ID == slow && st.State != StateCanceled {
			t.Fatalf("slow job %s after a forced drain", st.State)
		}
	}
	checkBooks(t, s)
	m := s.MetricsText()
	for _, want := range []string{
		`sortd_tenant_jobs_finished_total{tenant="a",outcome="done"} 2`,
		`sortd_tenant_jobs_finished_total{tenant="a",outcome="failed"} 1`,
		`sortd_tenant_jobs_finished_total{tenant="a",outcome="canceled"} 1`,
		`sortd_tenant_jobs_recovered_total{tenant="a"} 1`,
		`sortd_tenant_jobs_finished_total{tenant="b",outcome="canceled"} 2`,
		`sortd_tenant_jobs_finished_total{tenant="c",outcome="canceled"} 1`,
	} {
		if !strings.Contains(m, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

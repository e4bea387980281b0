package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"codedterasort/internal/cluster"
)

// terasortSpec is the small standard job tests submit.
func terasortSpec(rows int64, seed uint64) cluster.Spec {
	return cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 3, Rows: rows, Seed: seed}
}

// waitRunning polls until the job leaves the queue — tests use it to pin
// down dispatch order before submitting more work.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateQueued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never dispatched", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	s := New(Config{PoolSlots: 4})
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "acme", Spec: terasortSpec(3000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" || st.Tenant != "acme" {
		t.Fatalf("submit status %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := s.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || !final.Validated {
		t.Fatalf("final status %+v", final)
	}
	if final.StagesDone == 0 || final.LastStage == "" {
		t.Fatalf("no live progress recorded: %+v", final)
	}
	if len(final.Partitions) != 3 || final.OutputRows != 3000 {
		t.Fatalf("partition summaries %+v", final.Partitions)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{PoolSlots: 4})
	defer s.Close()
	cases := []SubmitRequest{
		{Tenant: "", Spec: terasortSpec(100, 1)},
		{Tenant: "a", Spec: cluster.Spec{Algorithm: "nope", K: 2, Rows: 10}},
		{Tenant: "a", Spec: cluster.Spec{Algorithm: cluster.AlgCoded, K: 4, R: 2, Rows: 10, Placement: "nope"}},
		{Tenant: "a", Spec: cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 2, Rows: 10, KeepOutput: true}},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("case %d admitted: %+v", i, req)
		}
	}
	// K above PoolSlots is admissible: the job takes every slot and runs
	// its K ranks.
	big, err := s.Submit(SubmitRequest{Tenant: "a", Spec: cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 8, Rows: 800, Seed: 1}})
	if err != nil {
		t.Fatalf("oversized job rejected: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := s.WaitJob(ctx, big.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Validated {
		t.Fatalf("oversized job final status %+v", st)
	}
	if _, err := s.Job("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job lookup: %v", err)
	}
}

func TestTenantAdmissionControl(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{PoolSlots: 4, Tenants: map[string]Limits{"metered": {RatePerSec: 0.001, Burst: 2}},
		Now: func() time.Time { return now }})
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(SubmitRequest{Tenant: "metered", Spec: terasortSpec(500, uint64(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(SubmitRequest{Tenant: "metered", Spec: terasortSpec(500, 9)})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third burst submission: %v, want ErrRateLimited", err)
	}
	// Another tenant is unaffected by the metered tenant's empty bucket.
	if _, err := s.Submit(SubmitRequest{Tenant: "other", Spec: terasortSpec(500, 3)}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalBacklogCap(t *testing.T) {
	// MaxQueue=1 with a MaxRunning=1 tenant: the first job dispatches,
	// the second stays queued (tenant at its running cap) and fills the
	// backlog, so the third must bounce with ErrBacklogFull.
	s := New(Config{PoolSlots: 3, MaxQueue: 1, Tenants: map[string]Limits{"t": {MaxRunning: 1}}})
	defer s.Close()
	first, err := s.Submit(SubmitRequest{Tenant: "t", Spec: terasortSpec(200_000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, first.ID)
	if _, err := s.Submit(SubmitRequest{Tenant: "t", Spec: terasortSpec(100, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SubmitRequest{Tenant: "t", Spec: terasortSpec(100, 3)}); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("third submit: %v, want ErrBacklogFull", err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Rank slots equal to one job's K, so jobs serialize and the queue
	// orders the waiters by priority.
	s := New(Config{PoolSlots: 3, Tenants: map[string]Limits{"gold": {Priority: 10}, "bronze": {Priority: 1}}})
	defer s.Close()
	// Saturate the slots with a slow-ish job so subsequent submissions
	// queue up behind it.
	first, err := s.Submit(SubmitRequest{Tenant: "bronze", Spec: terasortSpec(150_000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, first.ID)
	bronze, err := s.Submit(SubmitRequest{Tenant: "bronze", Spec: terasortSpec(1000, 2)})
	if err != nil {
		t.Fatal(err)
	}
	gold, err := s.Submit(SubmitRequest{Tenant: "gold", Spec: terasortSpec(1000, 3)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range []string{first.ID, bronze.ID, gold.ID} {
		if _, err := s.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := s.Job(gold.ID)
	b, _ := s.Job(bronze.ID)
	if !g.StartedAt.Before(b.StartedAt) {
		t.Fatalf("gold started %v, bronze %v: priority inverted", g.StartedAt, b.StartedAt)
	}
}

func TestDrainRejectsAndCancelsQueued(t *testing.T) {
	s := New(Config{PoolSlots: 3, Tenants: map[string]Limits{"t": {MaxRunning: 1}}, DrainTimeout: time.Minute})
	running, err := s.Submit(SubmitRequest{Tenant: "t", Spec: terasortSpec(50_000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, running.ID)
	queued, err := s.Submit(SubmitRequest{Tenant: "t", Spec: terasortSpec(1000, 2)})
	if err != nil {
		t.Fatal(err)
	}
	forced := s.Drain()
	if forced {
		t.Fatal("drain had to force-cancel a small job")
	}
	if _, err := s.Submit(SubmitRequest{Tenant: "t", Spec: terasortSpec(100, 3)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	r, _ := s.Job(running.ID)
	q, _ := s.Job(queued.ID)
	if r.State != StateDone || !r.Validated {
		t.Fatalf("running job after drain: %+v", r)
	}
	if q.State != StateCanceled {
		t.Fatalf("queued job after drain: %+v", q)
	}
	select {
	case <-s.Drained():
	default:
		t.Fatal("Drained channel not closed after Drain returned")
	}
	// Drain is idempotent.
	if s.Drain() {
		t.Fatal("second drain reported forcing")
	}
}

func TestDrainForceCancelsSlowJobs(t *testing.T) {
	s := New(Config{PoolSlots: 4, DrainTimeout: 50 * time.Millisecond})
	// Big enough to outlive the 50ms drain budget.
	st, err := s.Submit(SubmitRequest{Tenant: "t", Spec: terasortSpec(2_000_000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Let it start before draining.
	waitRunning(t, s, st.ID)
	if forced := s.Drain(); !forced {
		t.Fatal("drain of a 2M-row job within 50ms was not forced")
	}
	j, _ := s.Job(st.ID)
	if j.State != StateCanceled {
		t.Fatalf("slow job state %q after forced drain, want canceled", j.State)
	}
}

// TestSlotsNeverOversubscribed: six K = 3 jobs from two tenants, submitted
// at once on 4 rank slots, run one at a time (3 + 3 > 4), all validated,
// and return every slot.
func TestSlotsNeverOversubscribed(t *testing.T) {
	s := New(Config{PoolSlots: 4})
	defer s.Close()
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := s.Submit(SubmitRequest{Tenant: []string{"a", "b"}[i%2], Spec: terasortSpec(3000, uint64(i+1))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var jobs []JobStatus
	for _, id := range ids {
		st, err := s.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || !st.Validated {
			t.Fatalf("job %s: %q validated=%v error=%q", id, st.State, st.Validated, st.Error)
		}
		jobs = append(jobs, st)
	}
	for i, a := range jobs {
		for _, b := range jobs[i+1:] {
			if a.StartedAt.Before(b.FinishedAt) && b.StartedAt.Before(a.FinishedAt) {
				t.Fatalf("jobs %s [%v, %v) and %s [%v, %v) ran at once on 4 slots",
					a.ID, a.StartedAt, a.FinishedAt, b.ID, b.StartedAt, b.FinishedAt)
			}
		}
	}
	if m := s.MetricsText(); !strings.Contains(m, "\nsortd_pool_free_slots 4\n") {
		t.Fatalf("metrics do not read 4 free slots:\n%s", m)
	}
}

func TestMetricsText(t *testing.T) {
	s := New(Config{PoolSlots: 4})
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "acme", Spec: terasortSpec(2000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := s.WaitJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	m := s.MetricsText()
	for _, want := range []string{
		`sortd_tenant_jobs_finished_total{tenant="acme",outcome="done"} 1`,
		`sortd_tenant_jobs_admitted_total{tenant="acme"} 1`,
		`sortd_stage_runs_total{stage="Map"} 3`,
		`sortd_stage_seconds_total{stage="Reduce"}`,
		"sortd_pool_slots 4",
		"sortd_recovery_attempts_total 1",
		"sortd_up 1",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, m)
		}
	}
	if !strings.Contains(m, "sortd_shuffle_load_bytes_total") {
		t.Fatal("metrics missing transfer counters")
	}
}

package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"codedterasort/internal/cluster"
	"codedterasort/internal/extsort"
	"codedterasort/internal/service/tenant"
)

// newTestAPI starts a Server behind httptest and returns a Client on it.
func newTestAPI(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		hs.Close()
	})
	return s, NewClient(hs.URL)
}

func TestHTTPSubmitWaitAndList(t *testing.T) {
	_, c := newTestAPI(t, Config{PoolSlots: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(ctx, SubmitRequest{Tenant: "acme", Spec: terasortSpec(3000, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("submit state %q", st.State)
	}
	final, err := c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || !final.Validated || final.OutputRows != 3000 {
		t.Fatalf("final %+v", final)
	}
	// Plain GET of the same job matches.
	got, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.ID != st.ID {
		t.Fatalf("job fetch %+v", got)
	}
	// List with and without the tenant filter.
	all, err := c.Jobs(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("listed %d jobs", len(all))
	}
	none, err := c.Jobs(ctx, "other")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("tenant filter leaked %d jobs", len(none))
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, `sortd_tenant_jobs_finished_total{tenant="acme",outcome="done"} 1`) {
		t.Fatalf("metrics missing tenant counter:\n%s", m)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Limits{})
	if err := reg.Define("metered", tenant.Limits{RatePerSec: 0.001, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	_, c := newTestAPI(t, Config{PoolSlots: 4, Tenants: reg})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// 404 for an unknown job.
	if _, err := c.Job(ctx, "job-404404"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("unknown job error: %v", err)
	}
	// 400 for an invalid spec.
	_, err := c.Submit(ctx, SubmitRequest{Tenant: "x", Spec: cluster.Spec{Algorithm: "nope", K: 2, Rows: 10}})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("bad spec error: %v", err)
	}
	// 400 — not 202 and a job that can only fail inside a worker — for a
	// spec the engine would refuse: spilling in chunks over the spill
	// block cap. No job is created.
	over := terasortSpec(500, 1)
	over.MemBudget, over.ChunkRows = 1<<30, extsort.MaxBlockRows+1
	_, err = c.Submit(ctx, SubmitRequest{Tenant: "x", Spec: over})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "spill block cap") {
		t.Fatalf("chunk rows over the spill block cap: %v", err)
	}
	if jobs, err := c.Jobs(ctx, "x"); err != nil || len(jobs) != 0 {
		t.Fatalf("refused submissions left jobs behind: %v, %v", jobs, err)
	}
	// 429 once the tenant's burst is spent.
	if _, err := c.Submit(ctx, SubmitRequest{Tenant: "metered", Spec: terasortSpec(500, 1)}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, SubmitRequest{Tenant: "metered", Spec: terasortSpec(500, 2)})
	if err == nil || !strings.Contains(err.Error(), "HTTP 429") {
		t.Fatalf("rate limit error: %v", err)
	}
}

func TestHTTPDrainFlow(t *testing.T) {
	s, c := newTestAPI(t, Config{PoolSlots: 4, DrainTimeout: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, SubmitRequest{Tenant: "t", Spec: cluster.Spec{
		Algorithm: cluster.AlgTeraSort, K: 2, Rows: 5000, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Drain runs async behind the 202; wait for it to complete.
	select {
	case <-s.Drained():
	case <-ctx.Done():
		t.Fatal("drain never completed")
	}
	healthy, err := c.Healthy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if healthy {
		t.Fatal("healthz still 200 after drain")
	}
	// 503 for submissions after drain.
	_, err = c.Submit(ctx, SubmitRequest{Tenant: "t", Spec: terasortSpec(100, 4)})
	if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("post-drain submit error: %v", err)
	}
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.State.Finished() {
		t.Fatalf("job not terminal after drain: %q", final.State)
	}
}

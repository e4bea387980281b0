package service

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/cluster"
)

// TestConcurrentMultiTenantJobs is the serving layer's acceptance bar:
// seven jobs from two tenants submitted concurrently — coded and uncoded,
// two out-of-core jobs spilling under one shared root, one job with an
// injected mid-Map kill, one sampled-partitioning job on a zipf input —
// must all complete with output byte-identical to their sequential oracle
// runs, with no spill-path collisions, and /metrics must report the
// per-tenant job counts and stage timings.
func TestConcurrentMultiTenantJobs(t *testing.T) {
	specs := []struct {
		tenant string
		spec   cluster.Spec
	}{
		{"acme", cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 3, Rows: 6000, Seed: 11}},
		{"acme", cluster.Spec{Algorithm: cluster.AlgCoded, K: 3, R: 2, Rows: 6000, Seed: 12}},
		{"beta", cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 3, Rows: 5000, Seed: 13,
			MemBudget: 16 << 10}},
		{"beta", cluster.Spec{Algorithm: cluster.AlgCoded, K: 3, R: 2, Rows: 5000, Seed: 14,
			MemBudget: 16 << 10}},
		{"acme", cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 3, Rows: 4000, Seed: 15,
			Faults:      []cluster.FaultSpec{{Rank: 1, Stage: "Map", Kind: "kill"}},
			MaxAttempts: 2, StageDeadline: 100 * time.Millisecond}},
		{"beta", cluster.Spec{Algorithm: cluster.AlgCoded, K: 3, R: 2, Rows: 4000, Seed: 16}},
		{"acme", cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 3, Rows: 4000, Seed: 17,
			DistName: "zipf", Partitioning: "sample"}},
	}

	// Sequential oracles: the same specs through the one-shot coordinator.
	oracles := make([]*cluster.JobReport, len(specs))
	for i, c := range specs {
		spec := c.spec
		if spec.MemBudget > 0 {
			spec.SpillDir = t.TempDir()
		}
		rep, err := cluster.RunLocal(spec)
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		if !rep.Validated {
			t.Fatalf("oracle %d did not validate", i)
		}
		oracles[i] = rep
	}

	spillRoot := t.TempDir()
	s := New(Config{PoolSlots: 6, SpillRoot: spillRoot, DrainTimeout: 2 * time.Minute})
	defer s.Close()

	// Concurrent submission from all tenants at once.
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, c := range specs {
		wg.Add(1)
		go func(i int, tenantName string, spec cluster.Spec) {
			defer wg.Done()
			st, err := s.Submit(SubmitRequest{Tenant: tenantName, Spec: spec})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = st.ID
		}(i, c.tenant, c.spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	for i, id := range ids {
		final, err := s.WaitJob(ctx, id)
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, id, err)
		}
		if final.State != StateDone || !final.Validated {
			t.Fatalf("job %d (%s) finished %q validated=%v error=%q",
				i, id, final.State, final.Validated, final.Error)
		}
		// Byte-identical to the oracle: every partition's rank, row count
		// and checksum must match the sequential run.
		oracle := oracles[i]
		if len(final.Partitions) != len(oracle.Workers) {
			t.Fatalf("job %d: %d partitions, oracle has %d", i, len(final.Partitions), len(oracle.Workers))
		}
		for _, p := range final.Partitions {
			w := oracle.Workers[p.Rank]
			if p.Rows != w.OutputRows || p.Checksum != w.OutputChecksum {
				t.Fatalf("job %d partition %d: rows=%d sum=%x, oracle rows=%d sum=%x",
					i, p.Rank, p.Rows, p.Checksum, w.OutputRows, w.OutputChecksum)
			}
		}
		// The out-of-core jobs must have been given disjoint job-scoped
		// spill namespaces under the shared root.
		if specs[i].spec.MemBudget > 0 {
			wantDir := filepath.Join(spillRoot, "sortd-"+id)
			if final.Spec.SpillDir != wantDir {
				t.Fatalf("job %d spilled in %q, want namespace %q", i, final.Spec.SpillDir, wantDir)
			}
			if final.SpilledRuns == 0 {
				t.Fatalf("job %d never spilled despite MemBudget=%d", i, specs[i].spec.MemBudget)
			}
		}
		// The killed job must show the supervisor's recovery.
		if len(specs[i].spec.Faults) > 0 {
			if final.Attempts < 2 || len(final.Recovered) == 0 {
				t.Fatalf("faulted job %d: attempts=%d recovered=%v", i, final.Attempts, final.Recovered)
			}
		}
	}

	// /metrics must account for every job per tenant, and carry stage
	// timings.
	m := s.MetricsText()
	for _, want := range []string{
		`sortd_tenant_jobs_finished_total{tenant="acme",outcome="done"} 4`,
		`sortd_tenant_jobs_finished_total{tenant="beta",outcome="done"} 3`,
		`sortd_tenant_jobs_admitted_total{tenant="acme"} 4`,
		`sortd_tenant_jobs_admitted_total{tenant="beta"} 3`,
		`sortd_tenant_jobs_recovered_total{tenant="acme"} 1`,
		`sortd_stage_seconds_total{stage="Map"}`,
		`sortd_stage_seconds_total{stage="Reduce"}`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, m)
		}
	}
	// Spill totals flowed into the service counters too.
	if !strings.Contains(m, "sortd_spilled_runs_total") {
		t.Fatal("metrics missing spill totals")
	}
}

// TestConcurrentRoundRobinLoad pushes more jobs than the rank slots can
// run at once so dispatch, reservation and release churn under -race.
func TestConcurrentRoundRobinLoad(t *testing.T) {
	s := New(Config{PoolSlots: 4})
	defer s.Close()
	var ids []string
	for i := 0; i < 8; i++ {
		st, err := s.Submit(SubmitRequest{
			Tenant: fmt.Sprintf("t%d", i%3),
			Spec:   cluster.Spec{Algorithm: cluster.AlgTeraSort, K: 2, Rows: 2000, Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range ids {
		final, err := s.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || !final.Validated {
			t.Fatalf("job %s: %q validated=%v error=%q", id, final.State, final.Validated, final.Error)
		}
	}
	done := 0
	for _, st := range s.Jobs("") {
		if st.State == StateDone {
			done++
		}
	}
	if done != 8 {
		t.Fatalf("%d jobs done, want 8", done)
	}
}

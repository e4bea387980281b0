package service

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"codedterasort/internal/cluster"
)

// MetricsText renders the service state in the Prometheus text exposition
// format: per-tenant job counters and gauges, the cluster-wide per-stage
// timing rollup from the engines' stage hooks, the transfer counters, the
// recovery totals, and the rank slots' occupancy. Rendered on demand from
// the job table, under the lock that guards it — the service keeps no
// counters beside its jobs but a tenant's refused submissions.
func (s *Server) MetricsText() string {
	uptime := s.cfg.Now().Sub(s.start).Seconds()
	s.mu.Lock()
	defer s.mu.Unlock()

	// One pass over the job table: per-tenant counts by state, the jobs
	// started on the rank slots, and the finished jobs' reports added up.
	type tenantCounts struct {
		admitted, done, failed, canceled, recovered, running int64
	}
	counts := map[string]*tenantCounts{}
	for name := range s.tenants {
		counts[name] = &tenantCounts{}
	}
	var started, recoveredFaults int64
	var sum cluster.JobReport
	for _, j := range s.order {
		c := counts[j.tenant]
		c.admitted++
		switch j.state {
		case StateRunning:
			c.running++
		case StateDone:
			c.done++
			if j.report.Attempts > 1 {
				c.recovered++
			}
		case StateFailed:
			c.failed++
		case StateCanceled:
			c.canceled++
		}
		if !j.started.IsZero() {
			started++
		}
		if rep := j.report; rep != nil {
			sum.ShuffleLoadBytes += rep.ShuffleLoadBytes
			sum.WireBytes += rep.WireBytes
			sum.SpilledRuns += rep.SpilledRuns
			sum.Spill.Add(rep.Spill)
			sum.MergeOVCDecided += rep.MergeOVCDecided
			sum.MergeFullCompares += rep.MergeFullCompares
			sum.ChunksShuffled += rep.ChunksShuffled
			sum.Attempts += rep.Attempts
			recoveredFaults += int64(len(rep.Recovered))
		}
	}
	tenants := slices.Sorted(maps.Keys(s.tenants))

	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counterHead := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	gauge("sortd_up", "Whether the service is running.", 1)
	drainingVal := 0.0
	if s.draining {
		drainingVal = 1
	}
	gauge("sortd_draining", "Whether admission has stopped for drain.", drainingVal)
	gauge("sortd_uptime_seconds", "Seconds since the service started.", uptime)
	gauge("sortd_jobs_queued", "Jobs admitted but not yet dispatched.", float64(len(s.queue)))

	gauge("sortd_pool_slots", "Rank slots shared by all concurrent jobs.", float64(s.cfg.PoolSlots))
	gauge("sortd_pool_free_slots", "Rank slots no running job holds right now.", float64(s.freeSlots()))
	counterHead("sortd_pool_jobs_total", "Jobs started on the rank slots.")
	fmt.Fprintf(&b, "sortd_pool_jobs_total %d\n", started)

	// Per-tenant counters, stable order.
	counterHead("sortd_tenant_jobs_submitted_total", "Submission attempts per tenant.")
	for _, name := range tenants {
		tn := s.tenants[name]
		fmt.Fprintf(&b, "sortd_tenant_jobs_submitted_total{tenant=%q} %d\n", name,
			counts[name].admitted+tn.rejectedRate+tn.rejectedQueue)
	}
	counterHead("sortd_tenant_jobs_admitted_total", "Admitted submissions per tenant.")
	for _, name := range tenants {
		fmt.Fprintf(&b, "sortd_tenant_jobs_admitted_total{tenant=%q} %d\n", name, counts[name].admitted)
	}
	counterHead("sortd_tenant_jobs_rejected_total", "Rejected submissions per tenant by cause.")
	for _, name := range tenants {
		tn := s.tenants[name]
		fmt.Fprintf(&b, "sortd_tenant_jobs_rejected_total{tenant=%q,reason=\"rate\"} %d\n", name, tn.rejectedRate)
		fmt.Fprintf(&b, "sortd_tenant_jobs_rejected_total{tenant=%q,reason=\"queue\"} %d\n", name, tn.rejectedQueue)
	}
	counterHead("sortd_tenant_jobs_finished_total", "Finished jobs per tenant by outcome.")
	for _, name := range tenants {
		c := counts[name]
		fmt.Fprintf(&b, "sortd_tenant_jobs_finished_total{tenant=%q,outcome=\"done\"} %d\n", name, c.done)
		fmt.Fprintf(&b, "sortd_tenant_jobs_finished_total{tenant=%q,outcome=\"failed\"} %d\n", name, c.failed)
		fmt.Fprintf(&b, "sortd_tenant_jobs_finished_total{tenant=%q,outcome=\"canceled\"} %d\n", name, c.canceled)
	}
	counterHead("sortd_tenant_jobs_recovered_total", "Completed jobs that needed fault recovery, per tenant.")
	for _, name := range tenants {
		fmt.Fprintf(&b, "sortd_tenant_jobs_recovered_total{tenant=%q} %d\n", name, counts[name].recovered)
	}
	fmt.Fprintf(&b, "# HELP sortd_tenant_jobs_running Running jobs per tenant.\n# TYPE sortd_tenant_jobs_running gauge\n")
	for _, name := range tenants {
		fmt.Fprintf(&b, "sortd_tenant_jobs_running{tenant=%q} %d\n", name, counts[name].running)
	}

	// The stage rollup: trace.StageLog records folded live by the
	// engines' per-stage hooks, across all jobs, ranks and attempts.
	stages := slices.Sorted(maps.Keys(s.stages))
	counterHead("sortd_stage_runs_total", "Completed stage executions by stage, across jobs, ranks and attempts.")
	for _, st := range stages {
		fmt.Fprintf(&b, "sortd_stage_runs_total{stage=%q} %d\n", st, s.stages[st].Runs)
	}
	counterHead("sortd_stage_errors_total", "Errored stage executions by stage.")
	for _, st := range stages {
		fmt.Fprintf(&b, "sortd_stage_errors_total{stage=%q} %d\n", st, s.stages[st].Errors)
	}
	counterHead("sortd_stage_seconds_total", "Summed stage seconds by stage.")
	for _, st := range stages {
		fmt.Fprintf(&b, "sortd_stage_seconds_total{stage=%q} %g\n", st, s.stages[st].Seconds)
	}

	// Transfer and recovery totals from finished jobs.
	counterHead("sortd_shuffle_load_bytes_total", "Shuffle payload bytes (multicast counted once) of finished jobs.")
	fmt.Fprintf(&b, "sortd_shuffle_load_bytes_total %d\n", sum.ShuffleLoadBytes)
	counterHead("sortd_wire_bytes_total", "Transport-level bytes of finished jobs.")
	fmt.Fprintf(&b, "sortd_wire_bytes_total %d\n", sum.WireBytes)
	counterHead("sortd_spilled_runs_total", "External-sort runs spilled by finished jobs.")
	fmt.Fprintf(&b, "sortd_spilled_runs_total %d\n", sum.SpilledRuns)
	counterHead("sortd_spilled_raw_bytes_total", "Record bytes spilled by finished jobs, before framing.")
	fmt.Fprintf(&b, "sortd_spilled_raw_bytes_total %d\n", sum.Spill.RawBytes)
	counterHead("sortd_spilled_disk_bytes_total", "On-disk bytes of spilled runs and spools of finished jobs (framed).")
	fmt.Fprintf(&b, "sortd_spilled_disk_bytes_total %d\n", sum.Spill.DiskBytes)
	counterHead("sortd_merge_compares_total", "Merge-path key comparisons of finished jobs by kind: offset-value codes decided, or full key compares on code ties.")
	fmt.Fprintf(&b, "sortd_merge_compares_total{kind=\"ovc\"} %d\n", sum.MergeOVCDecided)
	fmt.Fprintf(&b, "sortd_merge_compares_total{kind=\"full\"} %d\n", sum.MergeFullCompares)
	counterHead("sortd_chunks_shuffled_total", "Pipelined shuffle chunks of finished jobs.")
	fmt.Fprintf(&b, "sortd_chunks_shuffled_total %d\n", sum.ChunksShuffled)
	counterHead("sortd_recovery_attempts_total", "Job executions used by finished jobs (first runs included).")
	fmt.Fprintf(&b, "sortd_recovery_attempts_total %d\n", sum.Attempts)
	counterHead("sortd_recovered_faults_total", "Faults detected and recovered from by finished jobs.")
	fmt.Fprintf(&b, "sortd_recovered_faults_total %d\n", recoveredFaults)
	return b.String()
}

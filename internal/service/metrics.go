package service

import (
	"fmt"
	"sort"
	"strings"

	"codedterasort/internal/stats"
)

// MetricsText renders the service state in the Prometheus text exposition
// format: per-tenant job counters and gauges, the cluster-wide per-stage
// timing rollup from the engines' stage hooks, the transfer counters, the
// recovery totals, and the rank slots' occupancy. Rendered on demand — the
// counters live in the tenant registry and the server, not in a metrics
// library.
func (s *Server) MetricsText() string {
	var b strings.Builder

	s.mu.Lock()
	draining := s.draining
	queued := len(s.queue)
	free, dispatched := s.free, s.dispatched
	tot := s.totals
	s.mu.Unlock()
	uptime := s.cfg.Now().Sub(s.start).Seconds()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counterHead := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	gauge("sortd_up", "Whether the service is running.", 1)
	drainingVal := 0.0
	if draining {
		drainingVal = 1
	}
	gauge("sortd_draining", "Whether admission has stopped for drain.", drainingVal)
	gauge("sortd_uptime_seconds", "Seconds since the service started.", uptime)
	gauge("sortd_jobs_queued", "Jobs admitted but not yet dispatched.", float64(queued))

	gauge("sortd_pool_slots", "Rank slots shared by all concurrent jobs.", float64(s.cfg.PoolSlots))
	gauge("sortd_pool_free_slots", "Rank slots no running job holds right now.", float64(free))
	counterHead("sortd_pool_jobs_total", "Jobs started on the rank slots.")
	fmt.Fprintf(&b, "sortd_pool_jobs_total %d\n", dispatched)

	// Per-tenant counters, stable order.
	tenants := s.tenants.All()
	counterHead("sortd_tenant_jobs_submitted_total", "Submission attempts per tenant.")
	for _, t := range tenants {
		fmt.Fprintf(&b, "sortd_tenant_jobs_submitted_total{tenant=%q} %d\n", t.Name(), t.Counters().Submitted)
	}
	counterHead("sortd_tenant_jobs_admitted_total", "Admitted submissions per tenant.")
	for _, t := range tenants {
		fmt.Fprintf(&b, "sortd_tenant_jobs_admitted_total{tenant=%q} %d\n", t.Name(), t.Counters().Admitted)
	}
	counterHead("sortd_tenant_jobs_rejected_total", "Rejected submissions per tenant by cause.")
	for _, t := range tenants {
		c := t.Counters()
		fmt.Fprintf(&b, "sortd_tenant_jobs_rejected_total{tenant=%q,reason=\"rate\"} %d\n", t.Name(), c.RejectedRate)
		fmt.Fprintf(&b, "sortd_tenant_jobs_rejected_total{tenant=%q,reason=\"queue\"} %d\n", t.Name(), c.RejectedQueue)
	}
	counterHead("sortd_tenant_jobs_finished_total", "Finished jobs per tenant by outcome.")
	for _, t := range tenants {
		c := t.Counters()
		fmt.Fprintf(&b, "sortd_tenant_jobs_finished_total{tenant=%q,outcome=\"done\"} %d\n", t.Name(), c.Completed)
		fmt.Fprintf(&b, "sortd_tenant_jobs_finished_total{tenant=%q,outcome=\"failed\"} %d\n", t.Name(), c.Failed)
		fmt.Fprintf(&b, "sortd_tenant_jobs_finished_total{tenant=%q,outcome=\"canceled\"} %d\n", t.Name(), c.Canceled)
	}
	counterHead("sortd_tenant_jobs_recovered_total", "Completed jobs that needed fault recovery, per tenant.")
	for _, t := range tenants {
		fmt.Fprintf(&b, "sortd_tenant_jobs_recovered_total{tenant=%q} %d\n", t.Name(), t.Counters().Recovered)
	}
	fmt.Fprintf(&b, "# HELP sortd_tenant_jobs_running Running jobs per tenant.\n# TYPE sortd_tenant_jobs_running gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(&b, "sortd_tenant_jobs_running{tenant=%q} %d\n", t.Name(), t.Counters().Running)
	}

	// The stage rollup: trace.StageLog records folded live by the
	// engines' per-stage hooks, across all jobs, ranks and attempts.
	s.stageMu.Lock()
	stages := make([]stats.Stage, 0, len(s.stageTotals))
	for st := range s.stageTotals {
		stages = append(stages, st)
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i] < stages[j] })
	type stageLine struct {
		name string
		tot  struct {
			runs, errs int64
			secs       float64
		}
	}
	lines := make([]stageLine, 0, len(stages))
	for _, st := range stages {
		tt := s.stageTotals[st]
		ln := stageLine{name: st.String()}
		ln.tot.runs, ln.tot.errs, ln.tot.secs = tt.Runs, tt.Errors, tt.Seconds
		lines = append(lines, ln)
	}
	s.stageMu.Unlock()
	counterHead("sortd_stage_runs_total", "Completed stage executions by stage, across jobs, ranks and attempts.")
	for _, ln := range lines {
		fmt.Fprintf(&b, "sortd_stage_runs_total{stage=%q} %d\n", ln.name, ln.tot.runs)
	}
	counterHead("sortd_stage_errors_total", "Errored stage executions by stage.")
	for _, ln := range lines {
		fmt.Fprintf(&b, "sortd_stage_errors_total{stage=%q} %d\n", ln.name, ln.tot.errs)
	}
	counterHead("sortd_stage_seconds_total", "Summed stage seconds by stage.")
	for _, ln := range lines {
		fmt.Fprintf(&b, "sortd_stage_seconds_total{stage=%q} %g\n", ln.name, ln.tot.secs)
	}

	// Transfer and recovery totals from finished jobs.
	counterHead("sortd_shuffle_load_bytes_total", "Shuffle payload bytes (multicast counted once) of finished jobs.")
	fmt.Fprintf(&b, "sortd_shuffle_load_bytes_total %d\n", tot.shuffleLoadBytes)
	counterHead("sortd_wire_bytes_total", "Transport-level bytes of finished jobs.")
	fmt.Fprintf(&b, "sortd_wire_bytes_total %d\n", tot.wireBytes)
	counterHead("sortd_spilled_runs_total", "External-sort runs spilled by finished jobs.")
	fmt.Fprintf(&b, "sortd_spilled_runs_total %d\n", tot.spilledRuns)
	counterHead("sortd_spilled_raw_bytes_total", "Record bytes spilled by finished jobs, before framing.")
	fmt.Fprintf(&b, "sortd_spilled_raw_bytes_total %d\n", tot.spilledRawBytes)
	counterHead("sortd_spilled_disk_bytes_total", "On-disk bytes of spilled runs and spools of finished jobs (framed).")
	fmt.Fprintf(&b, "sortd_spilled_disk_bytes_total %d\n", tot.spilledDiskBytes)
	counterHead("sortd_merge_compares_total", "Merge-path key comparisons of finished jobs by kind: offset-value codes decided, or full key compares on code ties.")
	fmt.Fprintf(&b, "sortd_merge_compares_total{kind=\"ovc\"} %d\n", tot.mergeOVCDecided)
	fmt.Fprintf(&b, "sortd_merge_compares_total{kind=\"full\"} %d\n", tot.mergeFullCmps)
	counterHead("sortd_chunks_shuffled_total", "Pipelined shuffle chunks of finished jobs.")
	fmt.Fprintf(&b, "sortd_chunks_shuffled_total %d\n", tot.chunksShuffled)
	counterHead("sortd_recovery_attempts_total", "Job executions used by finished jobs (first runs included).")
	fmt.Fprintf(&b, "sortd_recovery_attempts_total %d\n", tot.attempts)
	counterHead("sortd_recovered_faults_total", "Faults detected and recovered from by finished jobs.")
	fmt.Fprintf(&b, "sortd_recovered_faults_total %d\n", tot.recoveredFaults)
	return b.String()
}

package mapreduce

import (
	"context"

	"codedterasort/internal/cluster"
	"codedterasort/internal/engine"
	"codedterasort/internal/job"
	"codedterasort/internal/transport"
)

// RunLocal executes the job with all K workers in this process under the
// cluster runtime's supervisor (cluster.Supervise), with Run as every
// rank's body: traffic shaping (RateMbps, PerMessage, StragglerFactor),
// crash and stage-deadline detection, attempt-scoped recovery up to
// Spec.MaxAttempts, the attempt-tagged stage log and the byte counters are
// the sorters' own. Workers[r].Output holds rank r's reduced output;
// recovered jobs reproduce a clean run's byte for byte. The output is not
// self-verified (Validated stays false): Sequential is the oracle.
func RunLocal(j Job) (*cluster.JobReport, error) {
	j, _, err := j.normalize()
	if err != nil {
		return nil, err
	}
	return cluster.Supervise(context.Background(), j.Spec, cluster.Options{},
		func(ep transport.Endpoint, spec job.Spec, hooks engine.Hooks) (cluster.WorkerReport, error) {
			attempt := j
			attempt.Spec = spec
			res, err := run(ep, attempt, hooks)
			return cluster.WorkerReport{Summary: res.Summary, Output: res.Output}, err
		})
}

// ReducedRows totals the reduced output records of a RunLocal report.
func ReducedRows(rep *cluster.JobReport) int64 {
	var n int64
	for _, w := range rep.Workers {
		n += int64(w.Output.Len())
	}
	return n
}

// Package cluster implements the paper's system architecture (Fig 8): a
// coordinator that distributes the job specification and input placement,
// and K workers that execute the sorting stages. Two deployments share the
// same job specification and one supervisor (Supervise's attempt loop:
// detection, recovery, stage log, roll-up), differing only in how an
// attempt launches its ranks:
//
//   - RunLocal: all workers as goroutines over the in-memory transport,
//     optionally traffic-shaped (the single-machine stand-in for EC2).
//   - Coordinator/Worker: separate processes; workers register with the
//     coordinator over TCP, receive rank assignments and the spec, form a
//     full TCP mesh among themselves, run, and report results back.
//
// Both hand every rank its input files one by one through one source
// (fileSource: shared by all ranks in process, a worker's own over TCP)
// and verify each output, digested once by its checker, against the
// descriptions the files' lowest-ranked holders report, taken as the
// files were made (RunLocalOpts).
package cluster

import (
	"fmt"

	"codedterasort/internal/job"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
)

// The job description is job.Spec — one struct shared by the engine, this
// runtime, the wire and the flags. The cluster names are aliases, so
// callers keep writing cluster.Spec.
type (
	// Spec is the full description of one sorting job, distributed
	// verbatim by the coordinator to every worker.
	Spec = job.Spec
	// Algorithm selects which sorting algorithm a job runs.
	Algorithm = job.Algorithm
	// FaultSpec is one injected fault of a Spec.
	FaultSpec = job.FaultSpec
)

// The algorithms a Spec can name.
const (
	AlgTeraSort = job.AlgTeraSort
	AlgCoded    = job.AlgCoded
)

// prepared is a job as its supervisor or coordinator resolved it, once:
// the spec its ranks run, its resolution and placement plan, and the
// partitioner its output is verified against.
type prepared struct {
	spec     Spec
	resolved *job.Resolved
	plan     placement.Plan
	part     partition.Partitioner
}

// prepare validates a job's spec and resolves it once per job. Under
// sampled partitioning the splitters are the ranks' too: they come preset
// in the spec the ranks run, so no rank samples.
func prepare(spec Spec) (*prepared, error) {
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return nil, err
	}
	plan, err := resolved.Strat.Plan(spec.Rows)
	if err != nil {
		return nil, err
	}
	p, err := verifyPartitioner(spec)
	if err != nil {
		return nil, err
	}
	if sp, ok := p.(partition.Splitters); ok {
		spec.Splitters = sp.Bounds()
	}
	return &prepared{spec: spec, resolved: resolved, plan: plan, part: p}, nil
}

// verifyPartitioner returns the partitioner output verification checks
// worker partitions against: uniform by default, the expected sampled
// splitters under the sample policy.
func verifyPartitioner(spec Spec) (partition.Partitioner, error) {
	if !spec.Sampled() {
		return partition.NewUniform(spec.K), nil
	}
	bounds, err := spec.ExpectedSplitters()
	if err != nil {
		return nil, err
	}
	sp, err := partition.NewSplitters(bounds)
	if err != nil {
		return nil, fmt.Errorf("cluster: expected splitters: %w", err)
	}
	if sp.NumPartitions() != spec.K {
		return nil, fmt.Errorf("cluster: expected %d splitter partitions for K=%d", sp.NumPartitions(), spec.K)
	}
	return sp, nil
}

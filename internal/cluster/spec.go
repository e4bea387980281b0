// Package cluster implements the paper's system architecture (Fig 8): a
// coordinator that distributes the job specification and input placement,
// and K workers that execute the sorting stages. Two deployments share the
// same job specification:
//
//   - RunLocal: all workers as goroutines over the in-memory transport,
//     optionally traffic-shaped (the single-machine stand-in for EC2).
//   - Coordinator/Worker: separate processes; workers register with the
//     coordinator over TCP, receive rank assignments and the spec, form a
//     full TCP mesh among themselves, run, and report results back.
package cluster

import (
	"fmt"

	"codedterasort/internal/job"
	"codedterasort/internal/partition"
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

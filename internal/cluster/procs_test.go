package cluster

import (
	"fmt"
	"testing"
)

// TestParallelismEquivalenceMatrix: every Parallelism setting — default
// (0 = all cores), forced-sequential (1) and wider-than-the-machine (4) —
// must produce bit-identical per-rank partitions across the existing
// engine matrix dimensions (engine, r, distribution, chunked streaming,
// out-of-core budget). The matrix runs under the race detector as part of
// the standard gate, so the deterministic parallel kernels (scatter, MSB
// radix sort, per-group encode/decode, spill-run sorting) are exercised
// for both data races and output divergence at once.
func TestParallelismEquivalenceMatrix(t *testing.T) {
	const k, rows, seed = 4, 2400, 91
	// Budget small enough to force spilling at these row counts.
	const budget = 24 * 1024

	type pipeline struct {
		name      string
		chunkRows int
		window    int
		memBudget int64
	}
	pipelines := []pipeline{
		{"mono", 0, 0, 0},
		{"chunked", 64, 2, 0},
		{"extsort", 0, 0, budget},
	}
	type engine struct {
		name string
		alg  Algorithm
		r    int
	}
	engines := []engine{
		{"tera", AlgTeraSort, 0},
		{"coded-r2", AlgCoded, 2},
		{"coded-r3", AlgCoded, 3},
	}

	for _, dist := range []string{"", "skewed"} {
		for _, e := range engines {
			for _, p := range pipelines {
				base := Spec{
					Algorithm: e.alg, K: k, R: e.r, Rows: rows, Seed: seed,
					DistName: dist, ParallelShuffle: true,
					ChunkRows: p.chunkRows, Window: p.window, MemBudget: p.memBudget,
					KeepOutput: true, Parallelism: 1,
				}
				name := fmt.Sprintf("%s/%s/dist=%q", e.name, p.name, dist)
				t.Run(name, func(t *testing.T) {
					ref, err := RunLocal(base)
					if err != nil {
						t.Fatal(err)
					}
					if !ref.Validated {
						t.Fatalf("sequential reference not validated")
					}
					for _, procs := range []int{0, 4} {
						spec := base
						spec.Parallelism = procs
						job, err := RunLocal(spec)
						if err != nil {
							t.Fatalf("procs=%d: %v", procs, err)
						}
						if !job.Validated {
							t.Fatalf("procs=%d: not validated", procs)
						}
						for rank := 0; rank < k; rank++ {
							if !job.Workers[rank].Output.Equal(ref.Workers[rank].Output) {
								t.Fatalf("procs=%d rank %d: output not byte-identical to sequential", procs, rank)
							}
						}
					}
				})
			}
		}
	}
}

// TestParallelismSpecValidation: negative parallelism is rejected at the
// spec boundary, before a worker ever resolves it.
func TestParallelismSpecValidation(t *testing.T) {
	if err := (Spec{Algorithm: AlgTeraSort, K: 2, Rows: 10, Parallelism: -1}).Validate(); err == nil {
		t.Fatalf("negative parallelism accepted")
	}
	if err := RunWorker("127.0.0.1:0", WorkerOptions{Parallelism: -1}); err == nil {
		t.Fatalf("negative worker parallelism override accepted")
	}
}

// TestParallelismTCPWorkerOverride: a worker-side Parallelism override
// rides the TCP deployment without changing the job's validated result.
func TestParallelismTCPWorkerOverride(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := Spec{Algorithm: AlgCoded, K: 3, R: 2, Rows: 1500, Seed: 7, Parallelism: 4}
	done := make(chan error, spec.K)
	for w := 0; w < spec.K; w++ {
		go func(w int) {
			// One worker forces sequential, the rest keep the spec's 4.
			opts := WorkerOptions{}
			if w == 0 {
				opts.Parallelism = 1
			}
			done <- RunWorker(coord.Addr(), opts)
		}(w)
	}
	job, err := coord.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < spec.K; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if !job.Validated {
		t.Fatalf("mixed-parallelism job not validated")
	}
}

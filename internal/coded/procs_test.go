package coded

import (
	"testing"

	"codedterasort/internal/job"
)

// TestParallelismMatchesSequential: the engine's Parallelism knob —
// which parallelizes generation, the Map scatter, per-group Algorithm 1/2
// encode/decode and the Reduce sort — must leave per-rank outputs
// byte-identical to the sequential engine, monolithic and chunked alike.
func TestParallelismMatchesSequential(t *testing.T) {
	const k, rows, seed = 4, 2400, 23
	for _, r := range []int{1, 2} {
		for _, chunkRows := range []int{0, 80} {
			ref := runAll(t, cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed, ChunkRows: chunkRows, Parallelism: 1}))
			for _, procs := range []int{0, 4} {
				results := runAll(t, cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed, ChunkRows: chunkRows, Parallelism: procs}))
				for rank := range results {
					if !results[rank].Output.Equal(ref[rank].Output) {
						t.Fatalf("r=%d chunkRows=%d procs=%d rank %d: output differs from sequential", r, chunkRows, procs, rank)
					}
				}
			}
		}
	}
}

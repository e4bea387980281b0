package coded

import (
	"testing"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/verify"
)

// TestPipelinedMatchesMonolithic: the chunked streaming multicast shuffle
// must produce exactly the per-rank partitions of the stage-by-stage
// engine across redundancy, chunk size, window and schedule.
func TestPipelinedMatchesMonolithic(t *testing.T) {
	const k, rows, seed = 5, 2500, 31
	for _, r := range []int{1, 2, 4} {
		ref := runAll(t, cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed}))
		for _, chunkRows := range []int{1, 50, 100000} {
			for _, window := range []int{1, 3} {
				for _, parallel := range []bool{false, true} {
					cfg := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed,
						ParallelShuffle: parallel, ChunkRows: chunkRows, Window: window})
					results := runAll(t, cfg)
					for rank := range results {
						if !results[rank].Output.Equal(ref[rank].Output) {
							t.Fatalf("r=%d chunkRows=%d window=%d parallel=%v rank %d: output differs",
								r, chunkRows, window, parallel, rank)
						}
					}
				}
			}
		}
	}
}

// TestPipelinedValidatesAgainstReference: pipelined output also passes the
// full ordering/partition/multiset verification against the input.
func TestPipelinedValidatesAgainstReference(t *testing.T) {
	cfg := cfgOf(job.Spec{K: 4, R: 2, Rows: 3000, Seed: 9, ChunkRows: 64})
	results := runAll(t, cfg)
	in := verify.DescribeGenerated(kv.NewGenerator(9, kv.DistUniform), cfg.Rows)
	if err := checkSorted(outputs(results), partition.NewUniform(4), in); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedChunkAccounting: every group stream carries at least one
// chunk (empty streams close with a last-flagged chunk), the cluster-wide
// received count is r x sent (each chunk packet reaches the r other members
// of its clique group — one peer at r = 1), and SentOps tracks chunk
// packets.
func TestPipelinedChunkAccounting(t *testing.T) {
	for _, spec := range []job.Spec{
		{K: 3, R: 1, Rows: 1200, Seed: 5, ChunkRows: 50},
		{K: 5, R: 2, Rows: 2000, Seed: 13, ChunkRows: 40},
	} {
		cfg := cfgOf(spec)
		results := runAll(t, cfg)
		var sent, recv int64
		for rank, res := range results {
			if res.ChunksSent < int64(res.Groups) {
				t.Fatalf("r=%d rank %d sent %d chunks over %d groups", cfg.R, rank, res.ChunksSent, res.Groups)
			}
			if res.SentOps != res.ChunksSent {
				t.Fatalf("r=%d rank %d: %d send ops != %d chunks", cfg.R, rank, res.SentOps, res.ChunksSent)
			}
			sent += res.ChunksSent
			recv += res.ChunksReceived
		}
		if recv != sent*int64(cfg.R) {
			t.Fatalf("r=%d: chunks received %d != r x sent = %d", cfg.R, recv, sent*int64(cfg.R))
		}
	}
}

// TestPipelinedEmptyStreams: zero-row inputs still close every stream via
// the mandatory last-flagged empty chunk — one per group sent, one per
// other member of each group received.
func TestPipelinedEmptyStreams(t *testing.T) {
	for _, r := range []int{1, 2} {
		results := runAll(t, cfgOf(job.Spec{K: 3, R: r, Rows: 0, Seed: 1, ChunkRows: 10}))
		for rank, res := range results {
			if res.Output.Len() != 0 {
				t.Fatalf("r=%d rank %d produced %d records from empty input", r, rank, res.Output.Len())
			}
			if want := int64(res.Groups); res.ChunksSent != want || res.ChunksReceived != want*int64(r) {
				t.Fatalf("r=%d rank %d: %d sent / %d received, want %d/%d empty closers",
					r, rank, res.ChunksSent, res.ChunksReceived, want, want*int64(r))
			}
		}
	}
}

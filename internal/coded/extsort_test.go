package coded

import (
	"sync"
	"testing"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/verify"
)

// TestBudgetMatchesInMemory: for a sweep of (r, budget, schedule) cells,
// the out-of-core coded engine must produce byte-identical per-rank output
// to the in-memory engine — the chunk-decoded spill path and the streaming
// merge must not disturb the XOR cancellation or the final order — and
// must actually spill when the budget is small.
func TestBudgetMatchesInMemory(t *testing.T) {
	const k, rows, seed = 5, 5000, 59
	for _, r := range []int{1, 2, 4, 5} {
		ref := runAll(t, cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed}))
		for _, tc := range []struct {
			name      string
			budget    int64
			parallel  bool
			wantSpill bool
		}{
			{"tiny", 16 * 1024, false, true},
			{"tiny-parallel", 16 * 1024, true, true},
			{"medium", 64 * 1024, false, true},
			{"huge", 64 << 20, false, false},
		} {
			t.Run(tc.name+"/r="+string(rune('0'+r)), func(t *testing.T) {
				cfg := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed,
					MemBudget: tc.budget, SpillDir: t.TempDir(), ParallelShuffle: tc.parallel})
				results := runAll(t, cfg)
				var spilled int64
				for rank := range results {
					if !results[rank].Output.Equal(ref[rank].Output) {
						t.Fatalf("rank %d: budget output differs from in-memory output", rank)
					}
					if results[rank].OutputRows != int64(ref[rank].Output.Len()) {
						t.Fatalf("rank %d: output summary mismatch", rank)
					}
					if results[rank].Groups > 0 && results[rank].ChunksSent == 0 {
						t.Fatalf("rank %d: budget run reported no chunks", rank)
					}
					spilled += results[rank].SpilledRuns
				}
				if tc.wantSpill && spilled == 0 {
					t.Fatal("budget far below data size yet nothing spilled")
				}
				if !tc.wantSpill && spilled != 0 {
					t.Fatalf("huge budget spilled %d runs", spilled)
				}
				in := verify.DescribeGenerated(kv.NewGenerator(seed, kv.DistUniform), rows)
				if err := checkSorted(outputs(results), partition.NewUniform(k), in); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBudgetStreamsToSink: with an OutputSink the partition never
// materializes in the Result — the streamed blocks reassemble to exactly
// the in-memory output and pass full verification, and the Result summary
// matches.
func TestBudgetStreamsToSink(t *testing.T) {
	const k, rows, seed = 4, 4000, 61
	for _, r := range []int{1, 2} {
		ref := runAll(t, cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed}))
		var mu sync.Mutex
		streamed := make([]kv.Records, k)
		cfg := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed, MemBudget: 24 * 1024, SpillDir: t.TempDir()})
		results := runAllWith(t, cfg, func(rank int, c *Config) {
			c.OutputSink = func(block kv.Records) error {
				mu.Lock()
				defer mu.Unlock()
				streamed[rank] = streamed[rank].AppendRecords(block)
				return nil
			}
		})
		for rank := range results {
			if results[rank].Output.Len() != 0 {
				t.Fatalf("r=%d rank %d: Output materialized despite sink", r, rank)
			}
			if !streamed[rank].Equal(ref[rank].Output) {
				t.Fatalf("r=%d rank %d: streamed output differs from in-memory output", r, rank)
			}
			if results[rank].OutputRows != int64(ref[rank].Output.Len()) {
				t.Fatalf("r=%d rank %d: summary differs", r, rank)
			}
		}
		in := verify.DescribeGenerated(kv.NewGenerator(seed, kv.DistUniform), rows)
		if err := checkSorted(streamed, partition.NewUniform(k), in); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBudgetWithFilterRelayed: the budget path composes with a coded
// Grep (a selecting Map Transform) when every chunk relays through two members of its group.
func TestBudgetWithFilterRelayed(t *testing.T) {
	const k, r, rows, seed = 4, 3, 3000, 67
	match := func(rec []byte) bool { return rec[kv.KeySize+8]%2 == 0 }
	base := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed})
	base.Transform = selecting(match)
	ref := runAll(t, base)
	cfg := base
	cfg.MemBudget, cfg.SpillDir = 8*1024, t.TempDir()
	results := runAll(t, cfg)
	for rank := range results {
		if !results[rank].Output.Equal(ref[rank].Output) {
			t.Fatalf("rank %d: filtered budget output differs", rank)
		}
	}
}

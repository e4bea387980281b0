package coded

import (
	"bytes"
	"slices"
	"testing"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
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

// TestReduceTieOrder: on keys that repeat (DistDupHeavy: 64 distinct keys)
// the in-memory Reduce has a defined order — full key, then the order
// Reduce takes its parts in (stored files, then decoded segments by group
// and sender), then row — which is what the standard library's stable sort
// of those parts' concatenation produces, and which no Parallelism setting
// can change.
func TestReduceTieOrder(t *testing.T) {
	for _, r := range []int{1, 2} {
		spec := job.Spec{K: 4, R: r, Rows: 6000, Seed: 5, DistName: "dupheavy", Parallelism: 1}
		workers := runWorkers(t, cfgOf(spec), nil, nil)
		spec.Parallelism = 4
		parallel := runAll(t, cfgOf(spec))
		for rank, w := range workers {
			var all kv.Records
			for _, fi := range w.stored {
				all = all.AppendRecords(w.store.IV(w.rank, w.plan.Files[fi]))
			}
			for _, segs := range w.decoded {
				for _, seg := range segs {
					all = all.AppendRecords(seg)
				}
			}
			idx := make([]int, all.Len())
			for i := range idx {
				idx[i] = i
			}
			slices.SortStableFunc(idx, func(a, b int) int { return bytes.Compare(all.Key(a), all.Key(b)) })
			want := kv.MakeRecords(all.Len())
			for _, i := range idx {
				want = want.Append(all.Record(i))
			}
			if !w.result.Output.Equal(want) {
				t.Fatalf("r=%d rank %d: equal keys are not in (part, row) order", r, rank)
			}
			if !parallel[rank].Output.Equal(want) {
				t.Fatalf("r=%d rank %d: Parallelism 4 output differs from Parallelism 1", r, rank)
			}
		}
	}
}

package coded

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"codedterasort/internal/codec"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
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
// Reduce takes its parts in (stored files, then decoded segments by sender
// and group), then row — which is what the standard library's stable sort
// of those parts' concatenation produces, and which neither the
// Parallelism setting nor the sender schedule can change. The parts are
// read from the stores every rank mapped: its own share of its files, then
// the segment of its needed IV each other root codes into its packet.
func TestReduceTieOrder(t *testing.T) {
	for _, r := range []int{1, 2} {
		for _, chunkRows := range []int{0, 80} {
			for _, par := range []bool{false, true} {
				spec := job.Spec{K: 4, R: r, Rows: 6000, Seed: 5, DistName: "dupheavy", Parallelism: 1,
					ChunkRows: chunkRows, ParallelShuffle: par}
				name := fmt.Sprintf("r=%d chunkRows=%d parallel=%v", r, chunkRows, par)
				parts := make([]kv.Records, spec.K)
				workers := make([]*worker, spec.K)
				collect := func(rank int, c *Config) {
					c.Hooks = func(ev StageEvent) {
						if ev.Stage == stats.StageShuffle {
							parts[rank] = reduceInput(workers, rank)
						}
					}
				}
				runWorkers(t, cfgOf(spec), collect, func(w *worker) stats.Clock {
					workers[w.rank] = w
					return stats.NewWallClock()
				}, nil)
				spec.Parallelism = 4
				parallel := runAll(t, cfgOf(spec))
				for rank, w := range workers {
					all := parts[rank]
					idx := make([]int, all.Len())
					for i := range idx {
						idx[i] = i
					}
					slices.SortStableFunc(idx, func(a, b int) int { return bytes.Compare(all.Key(a), all.Key(b)) })
					want := kv.MakeRecords(all.Len())
					for _, i := range idx {
						want = want.Append(all.Record(i))
					}
					if want.Len() == 0 || !w.result.Output.Equal(want) {
						t.Fatalf("%s rank %d: equal keys are not in (part, row) order", name, rank)
					}
					if !parallel[rank].Output.Equal(want) {
						t.Fatalf("%s rank %d: Parallelism 4 output differs from Parallelism 1", name, rank)
					}
				}
			}
		}
	}
}

// reduceInput returns the records rank's Reduce orders, in the order of its
// parts, read from the stores the ranks mapped: rank's share of its stored
// files, then the segment of its needed IV each other root sends it, root
// by root in each root's send order. The stores must still be held: the
// ranks are no further than the Shuffle.
func reduceInput(workers []*worker, rank int) kv.Records {
	w := workers[rank]
	var all kv.Records
	for _, fi := range w.stored {
		all = all.AppendRecords(w.store.View(rank, w.plan.Files[fi]).Collect())
	}
	for u, sender := range workers {
		if u != rank {
			for _, gi := range w.inboundFrom(u) {
				all = all.AppendRecords(sentSegment(sender, rank, w.myGroups[gi]))
			}
		}
	}
	return all
}

// sentSegment returns the segment of rank's needed IV that sender codes
// into its packet in group g: the sender's position among the members
// other than rank picks one of the len(g.Members)-1 segments.
func sentSegment(sender *worker, rank int, g placement.Group) kv.Records {
	ik, pos := g.Index(rank), g.Index(sender.rank)
	if pos > ik {
		pos--
	}
	return codec.Segment(sender.store.View(rank, g.Need[ik]).Collect(), len(g.Members)-1, pos)
}

package coded

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"codedterasort/internal/codec"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/netem"
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
// every mode — monolithic, chunked and spill — at r = 1 and 2, under the
// serial schedule and ParallelShuffle, and a capped monolithic run whose
// reducer takes a run per packet segment, far past settleRuns, so that its
// order compacts, gives each rank the same bytes: its share of the input
// sorted as whole records by the standard library, whatever order its
// pieces arrive in and at any Parallelism.
func TestReduceTieOrder(t *testing.T) {
	const k, rows, seed = 4, 6000, 5
	input := kv.NewGenerator(seed, kv.DistDupHeavy).Generate(0, rows)
	var want []kv.Records
	for _, share := range partition.Split(partition.NewUniform(k), input) {
		recs := make([][]byte, share.Len())
		for i := range recs {
			recs[i] = share.Record(i)
		}
		slices.SortFunc(recs, bytes.Compare)
		sorted := kv.MakeRecords(len(recs))
		for _, rec := range recs {
			sorted = sorted.Append(rec)
		}
		want = append(want, sorted)
	}
	base := job.Spec{K: k, Rows: rows, Seed: seed, DistName: "dupheavy"}
	type cell struct {
		name string
		spec job.Spec
	}
	var cells []cell
	for _, r := range []int{1, 2} {
		for _, par := range []bool{false, true} {
			for _, mode := range []string{"monolithic", "chunked", "spill"} {
				spec := base
				spec.R, spec.ParallelShuffle, spec.Parallelism = r, par, 1
				if par {
					spec.Parallelism = 4
				}
				switch mode {
				case "chunked":
					spec.ChunkRows = 80
				case "spill":
					spec.MemBudget, spec.SpillDir = 16<<10, t.TempDir()
				}
				cells = append(cells, cell{fmt.Sprintf("%s r=%d parallel=%v", mode, r, par), spec})
			}
		}
	}
	capped := base
	capped.R, capped.RateMbps = 2, 20
	cells = append(cells, cell{"capped monolithic r=2", capped})
	for _, c := range cells {
		var wrap func(int, transport.Conn) transport.Conn
		if c.spec.RateMbps > 0 {
			wrap = func(_ int, conn transport.Conn) transport.Conn {
				return netem.Limit(conn, netem.Options{RateMbps: c.spec.RateMbps})
			}
		}
		for rank, w := range runWorkers(t, cfgOf(c.spec), nil, nil, wrap) {
			if !w.result.Output.Equal(want[rank]) {
				t.Fatalf("%s rank %d: output is not its share sorted as whole records", c.name, rank)
			}
		}
	}
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

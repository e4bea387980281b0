package partition

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"codedterasort/internal/kv"
)

// TestSplitParallelMatchesSplit: the parallel scatter, and the row lists
// of the reference scatter once gathered, must produce byte-identical
// per-partition buffers for every worker count, across both partitioner
// kinds, sizes spanning the sequential fallback, and skewed keys that leave
// some partitions nearly empty. The row lists ascend and tile the rows.
func TestSplitParallelMatchesSplit(t *testing.T) {
	for _, n := range []int64{0, 1, 100, 4096, 20000} {
		for _, dist := range []kv.Distribution{kv.DistUniform, kv.DistSkewed} {
			r := kv.NewGenerator(31, dist).Generate(0, n)
			for _, k := range []int{1, 4, 7} {
				parts := []Partitioner{NewUniform(k)}
				if n >= int64(k) {
					s, err := FromSample(r, k)
					if err == nil {
						parts = append(parts, s)
					}
				}
				for pi, p := range parts {
					want := Split(p, r)
					for _, procs := range []int{1, 2, 4, 9} {
						got := SplitParallel(p, r, procs)
						if len(got) != len(want) {
							t.Fatalf("n=%d k=%d procs=%d: %d partitions, want %d", n, k, procs, len(got), len(want))
						}
						rows := SplitRows(p, r, procs)
						listed := 0
						for j := range want {
							if !got[j].Equal(want[j]) {
								t.Fatalf("n=%d dist=%v k=%d part=%d partitioner=%d procs=%d: scatter differs",
									n, dist, k, j, pi, procs)
							}
							if !slices.IsSorted(rows[j]) || !kv.ViewRows(r, rows[j]).Collect().Equal(want[j]) {
								t.Fatalf("n=%d dist=%v k=%d part=%d partitioner=%d procs=%d: row list differs from the scatter",
									n, dist, k, j, pi, procs)
							}
							listed += len(rows[j])
						}
						if listed != r.Len() {
							t.Fatalf("n=%d k=%d procs=%d: %d rows listed of %d", n, k, procs, listed, r.Len())
						}
					}
				}
			}
		}
	}
}

// BenchmarkScatterParallel measures the Map-stage scatter (histogram +
// deterministic parallel placement) at 1 and NumCPU workers.
func BenchmarkScatterParallel(b *testing.B) {
	r := kv.NewGenerator(3, kv.DistUniform).Generate(0, 200000)
	p := NewUniform(8)
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(r.Size()))
			for i := 0; i < b.N; i++ {
				_ = SplitParallel(p, r, procs)
			}
		})
		b.Run(fmt.Sprintf("rows/p=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(r.Size()))
			for i := 0; i < b.N; i++ {
				_ = SplitRows(p, r, procs)
			}
		})
	}
}

package partition

import (
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
)

// parallelScatterMinRows is the input size below which the scatters run on
// one goroutine: small blocks (the out-of-core per-chunk path) are cheaper
// to hash on one goroutine than to fork over.
const parallelScatterMinRows = 1 << 12

// SplitParallel is Split on up to procs goroutines, byte-identical to the
// sequential scatter at any worker count: SplitRows lists each partition's
// rows, and each list is gathered into its partition's buffer.
func SplitParallel(p Partitioner, r kv.Records, procs int) []kv.Records {
	if procs <= 1 || r.Len() < parallelScatterMinRows {
		return Split(p, r)
	}
	rows := SplitRows(p, r, procs)
	out := make([]kv.Records, len(rows))
	// A gather cannot fail.
	_ = parallel.Do(procs, len(rows), func(j int) error {
		out[j] = kv.ViewRows(r, rows[j]).Collect()
		return nil
	})
	return out
}

// SplitRows is the Map scatter by reference: for every partition it lists
// the ascending rows of r whose keys fall in it, and it copies no record.
// A first pass computes each record's partition and counts it per
// contiguous shard of r. The per-(partition, shard) counts become disjoint
// slots laid out shard-major in every partition's list, so when a second
// pass lists the rows, the shards concurrently, partition j lists its rows
// in input order with no write racing another: the lists are the same at
// any procs. The K lists share one backing array of r.Len() rows.
func SplitRows(p Partitioner, r kv.Records, procs int) [][]uint32 {
	n := r.Len()
	k := p.NumPartitions()
	if n < parallelScatterMinRows {
		procs = 1
	}
	shards := parallel.Shards(procs, n)
	ids := make([]uint32, n)
	counts := make([][]int, shards)
	parallel.ForShards(procs, n, func(s, lo, hi int) error {
		c := make([]int, k)
		for i := lo; i < hi; i++ {
			j := p.Partition(r.Key(i))
			ids[i] = uint32(j)
			c[j]++
		}
		counts[s] = c
		return nil
	})
	// counts[s][j] becomes shard s's first slot in partition j's list.
	rows := make([]uint32, n)
	out := make([][]uint32, k)
	off := 0
	for j := 0; j < k; j++ {
		start := off
		for s := 0; s < shards; s++ {
			off, counts[s][j] = off+counts[s][j], off
		}
		out[j] = rows[start:off:off]
	}
	parallel.ForShards(procs, n, func(s, lo, hi int) error {
		next := counts[s]
		for i := lo; i < hi; i++ {
			j := ids[i]
			rows[next[j]] = uint32(i)
			next[j]++
		}
		return nil
	})
	return out
}

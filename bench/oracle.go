package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"codedterasort/internal/cluster"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// partSum identifies one rank's sorted output partition without holding
// it: the row count and the order-independent record checksum.
type partSum struct {
	Rows     int64
	Checksum uint64
}

// oracle is the expected output of one job, computed without either
// engine: the rows come straight from the generator, and each is assigned
// to a rank by comparing its key with the partition boundaries. Sorting
// the rows first would give the same per-rank sums, so the oracle skips
// the sort and stays O(block) in memory.
type oracle struct {
	parts []partSum
}

// buildOracle regenerates spec's input and cuts it at the partitioner's
// boundaries: the uniform key-domain bounds, or the splitters the
// deterministic sampling round must agree on for a sampled job.
func buildOracle(spec cluster.Spec) (*oracle, error) {
	bounds := partition.UniformBounds(spec.K)
	if partition.Policy(spec.Partitioning) == partition.PolicySample {
		var err error
		if bounds, err = spec.ExpectedSplitters(); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	if len(bounds) != spec.K-1 {
		return nil, fmt.Errorf("oracle: %d bounds for K=%d", len(bounds), spec.K)
	}
	// The generator is addressable by row, so the row space is cut into one
	// range per core and the ranges summed.
	shares := runtime.GOMAXPROCS(0)
	cuts := kv.SplitRows(spec.Rows, shares)
	sums := make([][]partSum, shares)
	errs := make([]error, shares)
	var wg sync.WaitGroup
	for s := 0; s < shares; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[s] = make([]partSum, spec.K)
			gen := kv.NewGenerator(spec.Seed, spec.Dist())
			errs[s] = gen.GenerateBlocks(cuts[s], cuts[s+1]-cuts[s], 1<<14, func(b kv.Records) error {
				for i := 0; i < b.Len(); i++ {
					key := b.Key(i)
					// Partition p holds bounds[p-1] <= key < bounds[p].
					p := 0
					for p < len(bounds) && bytes.Compare(bounds[p], key) <= 0 {
						p++
					}
					sums[s][p].Rows++
					sums[s][p].Checksum += kv.ChecksumRecord(b.Record(i))
				}
				return nil
			})
		}()
	}
	wg.Wait()
	o := &oracle{parts: make([]partSum, spec.K)}
	for s := range sums {
		if errs[s] != nil {
			return nil, fmt.Errorf("oracle: %w", errs[s])
		}
		for p, sum := range sums[s] {
			o.parts[p].Rows += sum.Rows
			o.parts[p].Checksum += sum.Checksum
		}
	}
	return o, nil
}

// check compares a job's per-rank output summaries with the oracle.
func (o *oracle) check(got []partSum) error {
	if len(got) != len(o.parts) {
		return fmt.Errorf("oracle: %d partitions, want %d", len(got), len(o.parts))
	}
	for rank, want := range o.parts {
		if got[rank] != want {
			return fmt.Errorf("oracle: rank %d has %d rows checksum %#x, want %d rows checksum %#x",
				rank, got[rank].Rows, got[rank].Checksum, want.Rows, want.Checksum)
		}
	}
	return nil
}

// Package verify checks the correctness of a distributed sort's output:
// every node's partition must be internally sorted, contain only keys of
// that partition, and the concatenation across nodes (in partition order)
// must be a permutation of the input and globally sorted. These are the
// invariants that make (Q_1, ..., Q_K) "the final sorted list of the entire
// input data" (paper Section III-A5).
//
// Two entry points share one implementation: SortedOutput checks fully
// materialized partitions, and PartitionChecker consumes a partition as a
// stream of ascending blocks — the verification path of the out-of-core
// engines, whose sorted output is never resident in memory. Feeding blocks
// costs O(block) memory; the per-partition residue is a Summary (rows,
// multiset checksum, min and max key), and CheckSummaries closes the
// cross-partition and whole-input checks over those summaries alone.
package verify

import (
	"bytes"
	"fmt"
	"runtime"

	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
)

// Input summarizes the input against which an output is checked.
type Input struct {
	Rows     int64
	Checksum uint64
}

// Describe computes the Input summary of a record buffer.
func Describe(r kv.Records) Input {
	return Input{Rows: int64(r.Len()), Checksum: r.Checksum()}
}

// describeBlockRows is the block DescribeGenerated generates and digests at
// a time: 400 KB, so a block is still in cache when its digest reads it.
const describeBlockRows = 1 << 12

// DescribeGenerated computes the Input summary for generated data without
// holding it all in memory at once: the row space is cut into one range per
// core (the generator is addressable by row), and each range is generated
// and digested block by block into one reused buffer.
func DescribeGenerated(g *kv.Generator, rows int64) Input {
	shards := runtime.GOMAXPROCS(0)
	cuts := kv.SplitRows(rows, shards)
	sums := make([]uint64, shards)
	// Neither GenerateBlocks (positive block size) nor the callback can fail.
	_ = parallel.Do(shards, shards, func(s int) error {
		return g.GenerateBlocks(cuts[s], cuts[s+1]-cuts[s], describeBlockRows, func(b kv.Records) error {
			sums[s] += b.Checksum()
			return nil
		})
	})
	in := Input{Rows: rows}
	for _, sum := range sums {
		in.Checksum += sum
	}
	return in
}

// Summary is the O(1)-size residue of checking one partition's stream.
type Summary struct {
	// Rows and Checksum accumulate the partition's multiset contribution.
	Rows     int64
	Checksum uint64
	// Min and Max are copies of the smallest and largest key seen (nil for
	// an empty partition). Because the stream is verified ascending, they
	// are the first and last keys.
	Min, Max []byte
}

// PartitionChecker verifies one partition's sorted output incrementally.
// Feed it ascending blocks; it checks key order (within and across blocks)
// and partition membership as they pass through, and accumulates the
// Summary. A zero block count is a legal empty partition.
//
// The partitioner must be a monotone range partitioner (see
// partition.Partitioner): membership is checked on the first and last key
// of each block only, and the ascending order in between implies the rest.
type PartitionChecker struct {
	p   partition.Partitioner
	k   int
	sum Summary
}

// NewPartitionChecker returns a checker for partition k of p.
func NewPartitionChecker(p partition.Partitioner, k int) *PartitionChecker {
	return &PartitionChecker{p: p, k: k}
}

// Feed verifies the next block of the partition's output stream. Per record
// it costs one compare with the preceding key, in place, plus the digest.
func (c *PartitionChecker) Feed(out kv.Records) error {
	n := out.Len()
	if n == 0 {
		return nil
	}
	if c.sum.Max != nil && bytes.Compare(out.Key(0), c.sum.Max) < 0 {
		return fmt.Errorf("verify: partition %d output not sorted", c.k)
	}
	for i := 1; i < n; i++ {
		if out.Less(i, i-1) {
			return fmt.Errorf("verify: partition %d output not sorted", c.k)
		}
	}
	for _, i := range [2]int{0, n - 1} {
		if got := c.p.Partition(out.Key(i)); got != c.k {
			return fmt.Errorf("verify: record %d of partition %d belongs to partition %d",
				c.sum.Rows+int64(i), c.k, got)
		}
	}
	if c.sum.Min == nil {
		c.sum.Min = append([]byte(nil), out.Key(0)...)
	}
	c.sum.Max = append(c.sum.Max[:0], out.Key(n-1)...)
	c.sum.Rows += int64(n)
	c.sum.Checksum += out.Checksum()
	return nil
}

// Summary returns the partition's accumulated summary.
func (c *PartitionChecker) Summary() Summary { return c.sum }

// CheckSummaries closes verification over per-partition summaries, in
// partition order: partitions must not overlap in key range (partition k's
// min at or above partition k-1's max), and rows and multiset checksum
// must total the input's.
func CheckSummaries(sums []Summary, in Input) error {
	var rows int64
	var sum uint64
	var prevMax []byte
	for k, s := range sums {
		if s.Min != nil {
			if prevMax != nil && bytes.Compare(s.Min, prevMax) < 0 {
				return fmt.Errorf("verify: partition %d starts below partition max of its predecessor", k)
			}
			prevMax = s.Max
		}
		rows += s.Rows
		sum += s.Checksum
	}
	if rows != in.Rows {
		return fmt.Errorf("verify: output has %d rows, input had %d", rows, in.Rows)
	}
	if sum != in.Checksum {
		return fmt.Errorf("verify: output checksum %#x != input checksum %#x", sum, in.Checksum)
	}
	return nil
}

// SortedOutput validates per-node outputs of a K-way distributed sort.
// outputs[k] must be node k's reduced partition; p is the partitioner all
// nodes hashed with. It is the materialized special case of the streaming
// checker: each partition is fed as one block, the K partitions
// concurrently.
func SortedOutput(outputs []kv.Records, p partition.Partitioner, in Input) error {
	if len(outputs) != p.NumPartitions() {
		return fmt.Errorf("verify: %d outputs for %d partitions", len(outputs), p.NumPartitions())
	}
	sums := make([]Summary, len(outputs))
	if err := parallel.Do(runtime.GOMAXPROCS(0), len(outputs), func(k int) error {
		c := NewPartitionChecker(p, k)
		err := c.Feed(outputs[k])
		sums[k] = c.Summary()
		return err
	}); err != nil {
		return err
	}
	return CheckSummaries(sums, in)
}

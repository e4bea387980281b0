// Package verify checks the correctness of a distributed sort's output:
// every node's partition must be internally sorted, contain only keys of
// that partition, and the concatenation across nodes (in partition order)
// must be a permutation of the input and globally sorted. These are the
// invariants that make (Q_1, ..., Q_K) "the final sorted list of the entire
// input data" (paper Section III-A5).
//
// PartitionChecker consumes a partition as a stream of ascending blocks —
// the one way the runtime verifies a sort's output, fed by each rank's
// Reduce as it emits, so no sorted partition is ever resident whole. A
// partition already materialized is fed as one block. Feeding blocks costs
// O(block) memory; the
// per-partition residue is a Summary (rows, multiset checksum, min and max
// key), and CheckSummaries closes the cross-partition and whole-input
// checks over those summaries alone.
//
// The input side is an Input (rows and multiset checksum), taken by
// whoever places the input, in the pass that places it, so no party
// reads the input a second time to describe it. Generated input is
// described by one generate-and-describe loop in two forms:
// MaterializeFile keeps one file, which is how a runtime makes each file
// it hands a rank, describing it when it hands the file to its
// lowest-ranked holder; DescribeGenerated keeps nothing. A file a rank
// scans block by block (out of core) is described by the runtime as it
// hands each block to the file's lowest-ranked holder, and each output by
// the checker it passes through: the engine reports no digest of its own.
package verify

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"

	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
)

// Input summarizes the input against which an output is checked. Its
// JSON form rides a TCP worker's report, one per file it described.
type Input struct {
	Rows     int64  `json:"rows"`
	Checksum uint64 `json:"checksum"`
}

// Describe computes the Input summary of a record buffer.
func Describe(r kv.Records) Input {
	return Input{Rows: int64(r.Len()), Checksum: r.Checksum()}
}

// describeBlockRows is the piece the generate-and-describe loop fills and
// digests at a time: 400 KB, so a piece is still in cache when its digest
// reads it.
const describeBlockRows = 1 << 12

// DescribeGenerated computes the Input summary of generator rows [0, rows)
// without holding them: the streaming form of MaterializeFile, which fills
// and digests every piece in one reused buffer per core.
func DescribeGenerated(g *kv.Generator, rows int64) Input {
	// Background never cancels.
	_, in, _ := generate(context.Background(), g, 0, max(rows, 0), false, true, runtime.GOMAXPROCS(0))
	return in
}

// MaterializeFile generates generator rows [first, last) — one file — into
// one new buffer on procs goroutines and, when describe is set, describes
// them in the same pass (a zero Input otherwise): every piece is digested
// right after it is filled. A canceled ctx stops the loop between pieces
// and returns ctx's error.
func MaterializeFile(ctx context.Context, g *kv.Generator, first, last int64, procs int, describe bool) (kv.Records, Input, error) {
	return generate(ctx, g, first, last, true, describe, procs)
}

// generate is the one generate-and-describe loop behind MaterializeFile
// (keep set: each piece is filled in place in the file) and
// DescribeGenerated (each core fills its pieces into one reused buffer).
// The rows are cut into pieces of describeBlockRows and dealt to procs
// cores in contiguous shards; with describe unset none is digested and the
// Input is zero.
func generate(ctx context.Context, g *kv.Generator, first, last int64, keep, describe bool, procs int) (kv.Records, Input, error) {
	n := last - first
	if first < 0 || n < 0 {
		return kv.Records{}, Input{}, fmt.Errorf("verify: rows [%d, %d) are not a range", first, last)
	}
	var file kv.Records
	if keep {
		// A whole number of records cannot be refused.
		file, _ = kv.NewRecords(make([]byte, n*kv.RecordSize))
	}
	pieces := int((n + describeBlockRows - 1) / describeBlockRows)
	sums := make([]uint64, parallel.Shards(procs, pieces))
	if err := parallel.ForShards(procs, pieces, func(s, lo, hi int) error {
		var scratch kv.Records
		if !keep && hi > lo {
			scratch, _ = kv.NewRecords(make([]byte, describeBlockRows*kv.RecordSize))
		}
		for p := lo; p < hi; p++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			off := int64(p) * describeBlockRows
			rows := min(describeBlockRows, n-off)
			var blk kv.Records
			if keep {
				blk = file.Slice(int(off), int(off+rows))
			} else {
				blk = scratch.Slice(0, int(rows))
			}
			g.Fill(blk, first+off)
			if describe {
				sums[s] += blk.Checksum()
			}
		}
		return nil
	}); err != nil {
		return kv.Records{}, Input{}, err
	}
	if !describe {
		return file, Input{}, nil
	}
	in := Input{Rows: n}
	for _, sum := range sums {
		in.Checksum += sum
	}
	return file, in, nil
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
// Feed it ascending blocks; it checks the output order (kv.Order: by key,
// equal keys by value, within and across blocks) and partition membership
// as they pass through, and accumulates the Summary. A zero block count is
// a legal empty partition.
//
// The partitioner must be a monotone range partitioner (see
// partition.Partitioner): membership is checked on the first and last key
// of each block only, and the ascending order in between implies the rest.
type PartitionChecker struct {
	p    partition.Partitioner
	k    int
	sum  Summary
	last [kv.RecordSize]byte // the last record fed; sum.Max is its key
}

// NewPartitionChecker returns a checker for partition k of p.
func NewPartitionChecker(p partition.Partitioner, k int) *PartitionChecker {
	return &PartitionChecker{p: p, k: k}
}

// The order check reads a key as its big-endian 8-byte prefix and then
// bytes 8-9, which is the whole key.
const _ = uint(kv.KeySize-10) + uint(10-kv.KeySize)

// Feed verifies the next block of the partition's output stream. Per record
// it costs one compare with the preceding key, in place — two integer
// compares, the 8-byte prefix and then the last two bytes — plus, only
// where the keys are equal, one of the values, and the digest.
func (c *PartitionChecker) Feed(out kv.Records) error {
	n := out.Len()
	if n == 0 {
		return nil
	}
	if c.sum.Max != nil && bytes.Compare(out.Record(0), c.last[:]) < 0 {
		return fmt.Errorf("verify: partition %d output not sorted", c.k)
	}
	b := out.Bytes()
	prevHi, prevLo := binary.BigEndian.Uint64(b), binary.BigEndian.Uint16(b[8:])
	for off := kv.RecordSize; off < len(b); off += kv.RecordSize {
		hi, lo := binary.BigEndian.Uint64(b[off:]), binary.BigEndian.Uint16(b[off+8:])
		if hi < prevHi || hi == prevHi && (lo < prevLo || lo == prevLo &&
			bytes.Compare(b[off+kv.KeySize:off+kv.RecordSize], b[off-kv.RecordSize+kv.KeySize:off]) < 0) {
			return fmt.Errorf("verify: partition %d output not sorted", c.k)
		}
		prevHi, prevLo = hi, lo
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
	copy(c.last[:], out.Record(n-1))
	c.sum.Max = c.last[:kv.KeySize]
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

package kv

import (
	"encoding/binary"
	"fmt"
	"math"

	"codedterasort/internal/parallel"
)

// Generator produces TeraGen-format records deterministically. Like Hadoop's
// TeraGen, generation is addressable by row number: record i is a pure
// function of (seed, i), so the coordinator can hand out disjoint row ranges
// to K workers (or replicate the same range to r nodes for the coded
// placement) and every party materializes identical bytes without any data
// movement.
//
// Distribution of keys:
//
//   - DistUniform: keys are 10 i.i.d. uniform bytes, the TeraGen default the
//     paper sorts. The key prefix is uniform on [0, 2^64), so the uniform
//     range partitioner is balanced.
//   - DistSkewed: the first key byte is drawn from a geometric-ish
//     distribution, concentrating mass on low byte values. Used by the
//     extension experiments to stress the sampling partitioner.
//   - DistZipf, DistSorted, DistNearSorted, DistDupHeavy, DistVarPrefix:
//     the skewed-workload family (see the Distribution constants) built to
//     break uniform range partitioning in distinct ways — heavy-head
//     ranks, presorted rows, tiny key domains, nested hot prefixes.
type Generator struct {
	seed uint64
	dist Distribution
}

// Distribution selects the key distribution of a Generator.
type Distribution int

const (
	// DistUniform matches TeraGen: uniform random keys.
	DistUniform Distribution = iota
	// DistSkewed concentrates keys at the low end of the key space.
	DistSkewed
	// DistZipf draws a Zipf(1.1)-distributed rank into the first four key
	// bytes (heavy head: half the records share the lowest ~2^10 ranks),
	// with uniform tail bytes so sampled splitters can still cut inside a
	// hot prefix. The uniform range partitioner collapses under it.
	DistZipf
	// DistSorted embeds the row number in the first eight key bytes, so the
	// input arrives globally sorted — every key lands in the uniform
	// partitioner's first range at realistic row counts.
	DistSorted
	// DistNearSorted is DistSorted with a bounded deterministic jitter of
	// +/-512 rows, modeling an almost-sorted input (e.g. a re-sort after
	// small updates).
	DistNearSorted
	// DistDupHeavy draws every key from a domain of only 64 distinct whole
	// keys, stressing splitter dedup: far fewer distinct sample keys than
	// partitions at realistic K.
	DistDupHeavy
	// DistVarPrefix prepends 0-6 bytes of a constant prefix before uniform
	// bytes, nesting hot shared-prefix ranges of different depths.
	DistVarPrefix
)

// Zipf-shape constants of DistZipf: rank = u^(-1/(zipfTheta-1)) is the
// inverse-CDF of a Pareto tail with P(rank > x) = x^(1-theta), the
// continuous stand-in for Zipf with exponent theta = 1.1.
const (
	zipfTheta = 1.1
	// nearSortedJitter bounds the displacement of DistNearSorted rows.
	nearSortedJitter = 512
	// dupHeavyDomain is the number of distinct keys DistDupHeavy emits.
	dupHeavyDomain = 64
	// varPrefixMaxLen and varPrefixByte shape DistVarPrefix keys.
	varPrefixMaxLen = 6
	varPrefixByte   = 0x42
)

// String returns the distribution name, accepted back by ParseDistribution.
func (d Distribution) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistSkewed:
		return "skewed"
	case DistZipf:
		return "zipf"
	case DistSorted:
		return "sorted"
	case DistNearSorted:
		return "nearsorted"
	case DistDupHeavy:
		return "dupheavy"
	case DistVarPrefix:
		return "varprefix"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// ParseDistribution parses a distribution name as printed by String; ""
// selects DistUniform.
func ParseDistribution(name string) (Distribution, error) {
	switch name {
	case "", "uniform":
		return DistUniform, nil
	case "skewed":
		return DistSkewed, nil
	case "zipf":
		return DistZipf, nil
	case "sorted":
		return DistSorted, nil
	case "nearsorted":
		return DistNearSorted, nil
	case "dupheavy":
		return DistDupHeavy, nil
	case "varprefix":
		return DistVarPrefix, nil
	}
	return 0, fmt.Errorf("kv: unknown distribution %q (want uniform, skewed, zipf, sorted, nearsorted, dupheavy, or varprefix)", name)
}

// SkewedDistributions lists the distributions built to break the uniform
// partitioner, in the order the skew experiments report them.
var SkewedDistributions = []Distribution{DistZipf, DistSorted, DistNearSorted, DistDupHeavy, DistVarPrefix}

// NewGenerator returns a generator for the given seed and key distribution.
func NewGenerator(seed uint64, dist Distribution) *Generator {
	return &Generator{seed: seed, dist: dist}
}

// Record writes record number row into dst, which must be RecordSize bytes.
func (g *Generator) Record(dst []byte, row int64) {
	if len(dst) != RecordSize {
		panic(fmt.Sprintf("kv: Generator.Record dst of %d bytes", len(dst)))
	}
	// Two independent splitmix streams per row: one for the key material,
	// one for the value filler.
	s := mix64(g.seed ^ mix64(uint64(row)+0x9e3779b97f4a7c15))
	var keyMat [16]byte
	binary.BigEndian.PutUint64(keyMat[0:8], mix64(s+1))
	binary.BigEndian.PutUint64(keyMat[8:16], mix64(s+2))
	copy(dst[:KeySize], keyMat[:KeySize])
	switch g.dist {
	case DistSkewed:
		// Skew: fold the first byte towards zero. b -> b*b/255 keeps the
		// full range but quadratically favors small values.
		b := int(dst[0])
		dst[0] = byte(b * b / 255)
	case DistZipf:
		// Inverse-CDF draw of the rank. u is uniform in (0, 1); the offset
		// keeps it away from 0 so Pow stays finite. math.Pow is only
		// required to be deterministic within one binary, which is all the
		// splitter agreement needs (every rank runs the same build).
		u := (float64(mix64(s+4)>>11) + 0.5) / (1 << 53)
		rank := math.Pow(u, -1/(zipfTheta-1))
		r32 := uint32(math.MaxUint32)
		if rank < float64(math.MaxUint32) {
			r32 = uint32(rank)
		}
		binary.BigEndian.PutUint32(dst[0:4], r32)
	case DistSorted:
		binary.BigEndian.PutUint64(dst[0:8], uint64(row))
	case DistNearSorted:
		jitter := int64(mix64(s+4)%(2*nearSortedJitter+1)) - nearSortedJitter
		v := row + jitter
		if v < 0 {
			v = 0
		}
		binary.BigEndian.PutUint64(dst[0:8], uint64(v))
	case DistDupHeavy:
		// The whole key is a function of the duplicate id, so the input
		// holds exactly dupHeavyDomain distinct keys.
		h := mix64(mix64(s+4)%dupHeavyDomain + 0xd1b54a32d192ed03)
		binary.BigEndian.PutUint64(dst[0:8], h)
		binary.BigEndian.PutUint16(dst[8:10], uint16(h>>48))
	case DistVarPrefix:
		d := int(mix64(s+4) % (varPrefixMaxLen + 1))
		for i := 0; i < d; i++ {
			dst[i] = varPrefixByte
		}
	}
	// Value: row id in the first 8 bytes (mirrors TeraGen embedding the row
	// number) then deterministic printable filler.
	binary.BigEndian.PutUint64(dst[KeySize:KeySize+8], uint64(row))
	v := mix64(s + 3)
	for i := KeySize + 8; i < RecordSize; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		dst[i] = 'A' + byte((v>>57)%26)
	}
}

// Generate materializes rows [first, first+count) as a fresh buffer.
func (g *Generator) Generate(first, count int64) Records {
	buf := make([]byte, count*RecordSize)
	for i := int64(0); i < count; i++ {
		g.Record(buf[i*RecordSize:(i+1)*RecordSize], first+i)
	}
	return Records{buf: buf}
}

// GenerateInto appends rows [first, first+count) to dst and returns it.
func (g *Generator) GenerateInto(dst Records, first, count int64) Records {
	start := len(dst.buf)
	dst.buf = append(dst.buf, make([]byte, count*RecordSize)...)
	for i := int64(0); i < count; i++ {
		off := start + int(i)*RecordSize
		g.Record(dst.buf[off:off+RecordSize], first+i)
	}
	return dst
}

// GenerateParallel materializes rows [first, first+count) on up to procs
// goroutines, each filling a disjoint contiguous range of one buffer.
// Record i is a pure function of (seed, i), so the result is byte-identical
// to Generate at any worker count.
func (g *Generator) GenerateParallel(first, count int64, procs int) Records {
	if procs <= 1 || count < parallelSortMinRows {
		return g.Generate(first, count)
	}
	buf := make([]byte, count*RecordSize)
	parallel.ForShards(procs, int(count), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			g.Record(buf[i*RecordSize:(i+1)*RecordSize], first+int64(i))
		}
		return nil
	})
	return Records{buf: buf}
}

// GenerateBlocks materializes rows [first, first+count) in blocks of at
// most blockRows rows each, calling fn with every block in row order. One
// buffer is reused across calls, so peak memory is one block regardless of
// count — the generator-backed input path of the out-of-core Map stage.
// fn must not retain the buffer; the first error aborts.
func (g *Generator) GenerateBlocks(first, count int64, blockRows int, fn func(Records) error) error {
	if blockRows <= 0 {
		return fmt.Errorf("kv: GenerateBlocks blockRows=%d", blockRows)
	}
	if count <= 0 {
		return nil
	}
	if int64(blockRows) > count {
		blockRows = int(count) // a short range needs no full-size block
	}
	buf := make([]byte, 0, blockRows*RecordSize)
	for off := int64(0); off < count; off += int64(blockRows) {
		n := count - off
		if n > int64(blockRows) {
			n = int64(blockRows)
		}
		buf = buf[:n*int64(RecordSize)]
		for i := int64(0); i < n; i++ {
			g.Record(buf[i*RecordSize:(i+1)*RecordSize], first+off+i)
		}
		if err := fn(Records{buf: buf}); err != nil {
			return err
		}
	}
	return nil
}

// SplitRows partitions total rows into n contiguous ranges that differ in
// size by at most one record, returning the first row of each range plus a
// final sentinel equal to total. Range i is [bounds[i], bounds[i+1]).
// This is the File Placement split of both algorithms (Section III-A1 and
// IV-A): TeraSort uses n = K, CodedTeraSort uses n = C(K, r).
func SplitRows(total int64, n int) []int64 {
	if n <= 0 {
		panic("kv: SplitRows with non-positive n")
	}
	bounds := make([]int64, n+1)
	for i := 0; i <= n; i++ {
		bounds[i] = total * int64(i) / int64(n)
	}
	return bounds
}

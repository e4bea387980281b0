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

// The value filler is 82 steps of the 64-bit LCG v -> v*lcgA + lcgC, one
// printable letter from the top seven bits of each state. Stepping it as
// written is a chain of 82 dependent multiplies; the kernel instead runs
// fillLanes independent chains, lane j starting at state j+1 and striding
// by fillLanes, using the jump-ahead form of an affine map:
//
//	v_(n+j) = lcgA^j * v_n + lcgC*(lcgA^j-1)/(lcgA-1)   (mod 2^64)
//
// so the states, and hence the bytes, are those of the serial chain.
const (
	lcgA = 6364136223846793005
	lcgC = 1442695040888963407
	// fillLanes is both the lane count and the letters stored per word.
	fillLanes = 8
	// fillerOff is where the filler starts: after the key and the row id.
	fillerOff = KeySize + 8
	// fillerWords full words of letters, then fillerTail single letters.
	fillerWords = (RecordSize - fillerOff) / fillLanes
	fillerTail  = (RecordSize - fillerOff) % fillLanes
)

// fill writes its tail from lanes 0 and 1 by name; a record layout with a
// different tail must not compile.
const _ = uint(fillerTail-2) + uint(2-fillerTail)

var (
	// lcgJumpA[j], lcgJumpC[j] advance the filler LCG by j+1 steps at once.
	lcgJumpA, lcgJumpC [fillLanes]uint64
	// fillerLetter maps the top seven bits of a state to its letter,
	// 'A' + bits%26.
	fillerLetter [128]byte
)

func init() {
	a, c := uint64(1), uint64(0)
	for j := range lcgJumpA {
		a, c = a*lcgA, c*lcgA+lcgC
		lcgJumpA[j], lcgJumpC[j] = a, c
	}
	for i := range fillerLetter {
		fillerLetter[i] = 'A' + byte(i%26)
	}
}

// rowState returns the splitmix state every field of a row derives from:
// state+1 and +2 feed the key, +3 the value filler, +4 the distribution's
// own draw.
func (g *Generator) rowState(row int64) uint64 {
	return mix64(g.seed ^ mix64(uint64(row)+0x9e3779b97f4a7c15))
}

// key returns the key of the row with state s as its first eight bytes
// (big-endian in hi) and its last two (big-endian in lo).
func (g *Generator) key(s uint64, row int64) (hi uint64, lo uint16) {
	hi, lo = mix64(s+1), uint16(mix64(s+2)>>48)
	if g.dist != DistUniform {
		hi, lo = g.shapeKey(s, row, hi, lo)
	}
	return hi, lo
}

// shapeKey bends a uniform key to the generator's distribution. It is kept
// out of key so the TeraGen default pays one predictable branch per row,
// not the switch.
func (g *Generator) shapeKey(s uint64, row int64, hi uint64, lo uint16) (uint64, uint16) {
	switch g.dist {
	case DistSkewed:
		// Skew: fold the first byte towards zero. b -> b*b/255 keeps the
		// full range but quadratically favors small values.
		b := hi >> 56
		return b*b/255<<56 | hi<<8>>8, lo
	case DistZipf:
		// Inverse-CDF draw of the rank. u is uniform in (0, 1); the offset
		// keeps it away from 0 so Pow stays finite. math.Pow is only
		// required to be deterministic within one binary, which is all the
		// splitter agreement needs (every rank runs the same build).
		u := (float64(mix64(s+4)>>11) + 0.5) / (1 << 53)
		rank := math.Pow(u, -1/(zipfTheta-1))
		r32 := uint64(math.MaxUint32)
		if rank < float64(math.MaxUint32) {
			r32 = uint64(uint32(rank))
		}
		return r32<<32 | hi&math.MaxUint32, lo
	case DistSorted:
		return uint64(row), lo
	case DistNearSorted:
		jitter := int64(mix64(s+4)%(2*nearSortedJitter+1)) - nearSortedJitter
		v := row + jitter
		if v < 0 {
			v = 0
		}
		return uint64(v), lo
	case DistDupHeavy:
		// The whole key is a function of the duplicate id, so the input
		// holds exactly dupHeavyDomain distinct keys.
		h := mix64(mix64(s+4)%dupHeavyDomain + 0xd1b54a32d192ed03)
		return h, uint16(h >> 48)
	case DistVarPrefix:
		// The first d bytes become the prefix byte; d = 0 shifts the mask
		// out entirely.
		d := mix64(s+4) % (varPrefixMaxLen + 1)
		mask := ^uint64(0) << (64 - 8*d)
		return varPrefixByte*0x0101010101010101&mask | hi&^mask, lo
	}
	return hi, lo
}

// fill is the one row kernel: it writes rows first, first+1, ... over buf,
// whose length must be a multiple of RecordSize. Every producer below is a
// loop of fill calls, so they cannot disagree on a byte.
func (g *Generator) fill(buf []byte, first int64) {
	row := first
	for ; len(buf) >= RecordSize; buf, row = buf[RecordSize:], row+1 {
		dst := buf[:RecordSize:RecordSize]
		s := g.rowState(row)
		hi, lo := g.key(s, row)
		binary.BigEndian.PutUint64(dst[0:8], hi)
		binary.BigEndian.PutUint16(dst[8:10], lo)
		// Value: row id in the first 8 bytes (mirrors TeraGen embedding
		// the row number) then deterministic printable filler.
		binary.BigEndian.PutUint64(dst[KeySize:fillerOff], uint64(row))

		v := mix64(s + 3)
		x0 := v*lcgJumpA[0] + lcgJumpC[0]
		x1 := v*lcgJumpA[1] + lcgJumpC[1]
		x2 := v*lcgJumpA[2] + lcgJumpC[2]
		x3 := v*lcgJumpA[3] + lcgJumpC[3]
		x4 := v*lcgJumpA[4] + lcgJumpC[4]
		x5 := v*lcgJumpA[5] + lcgJumpC[5]
		x6 := v*lcgJumpA[6] + lcgJumpC[6]
		x7 := v*lcgJumpA[7] + lcgJumpC[7]
		a, c := lcgJumpA[fillLanes-1], lcgJumpC[fillLanes-1]
		out := dst[fillerOff:]
		for w := 0; w < fillerWords; w++ {
			letters := uint64(fillerLetter[x0>>57]) |
				uint64(fillerLetter[x1>>57])<<8 |
				uint64(fillerLetter[x2>>57])<<16 |
				uint64(fillerLetter[x3>>57])<<24 |
				uint64(fillerLetter[x4>>57])<<32 |
				uint64(fillerLetter[x5>>57])<<40 |
				uint64(fillerLetter[x6>>57])<<48 |
				uint64(fillerLetter[x7>>57])<<56
			binary.LittleEndian.PutUint64(out[w*fillLanes:], letters)
			x0, x1, x2, x3 = x0*a+c, x1*a+c, x2*a+c, x3*a+c
			x4, x5, x6, x7 = x4*a+c, x5*a+c, x6*a+c, x7*a+c
		}
		out[fillerWords*fillLanes] = fillerLetter[x0>>57]
		out[fillerWords*fillLanes+1] = fillerLetter[x1>>57]
	}
}

// Record writes record number row into dst, which must be RecordSize bytes:
// the one-row form of the block kernel.
func (g *Generator) Record(dst []byte, row int64) {
	if len(dst) != RecordSize {
		panic(fmt.Sprintf("kv: Generator.Record dst of %d bytes", len(dst)))
	}
	g.fill(dst, row)
}

// Key writes the key of record number row into dst, which must be KeySize
// bytes — the bytes Record would put there, without the value.
func (g *Generator) Key(dst []byte, row int64) {
	if len(dst) != KeySize {
		panic(fmt.Sprintf("kv: Generator.Key dst of %d bytes", len(dst)))
	}
	hi, lo := g.key(g.rowState(row), row)
	binary.BigEndian.PutUint64(dst[0:8], hi)
	binary.BigEndian.PutUint16(dst[8:10], lo)
}

// Generate materializes rows [first, first+count) as a fresh buffer.
func (g *Generator) Generate(first, count int64) Records {
	buf := make([]byte, count*RecordSize)
	g.fill(buf, first)
	return Records{buf: buf}
}

// parallelGenMinRows is the size below which GenerateParallel stays on the
// calling goroutine: under ~0.2 ms of generation the spawn and join cost of
// the shards is no longer noise.
const parallelGenMinRows = 1 << 12

// GenerateParallel materializes rows [first, first+count) on up to procs
// goroutines, each filling a disjoint contiguous range of one buffer.
// Record i is a pure function of (seed, i), so the result is byte-identical
// to Generate at any worker count.
func (g *Generator) GenerateParallel(first, count int64, procs int) Records {
	if procs <= 1 || count < parallelGenMinRows {
		return g.Generate(first, count)
	}
	buf := make([]byte, count*RecordSize)
	parallel.ForShards(procs, int(count), func(_, lo, hi int) error {
		g.fill(buf[lo*RecordSize:hi*RecordSize], first+int64(lo))
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
		g.fill(buf, first+off)
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

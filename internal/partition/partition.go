// Package partition implements Key Domain Partitioning (paper Section
// III-A2): the key space is split into K ordered partitions P_1 < ... < P_K
// and node k reduces exactly the keys that fall in P_k. Both TeraSort and
// CodedTeraSort hash every record through the same partitioner, so the
// partitioner is the single component that determines reducer balance.
//
// Two strategies are provided:
//
//   - Uniform: partitions the 64-bit key prefix range evenly. Optimal for
//     the TeraGen uniform distribution the paper evaluates.
//   - Splitters: K-1 explicit boundary keys with binary search, built either
//     directly or from a sorted sample of the input (the practical Hadoop
//     TeraSort approach, used here for the skewed-input extension).
package partition

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"codedterasort/internal/kv"
)

// Policy names a partitioner-selection policy: how a job decides the key
// ranges of its K reducers before the Map stage runs.
type Policy string

const (
	// PolicyUniform splits the 64-bit key prefix space evenly — the
	// paper's TeraGen assumption, balanced only for uniform keys.
	PolicyUniform Policy = "uniform"
	// PolicySample runs a pre-Map sampling round: every mapper contributes
	// a deterministic stride sample of its input keys, the pooled sample is
	// sorted, and K-1 quantile splitters become the cluster-wide
	// partitioner — the practical TeraSort approach for skewed keys.
	PolicySample Policy = "sample"
)

// DefaultSampleSize is the pooled sample size of PolicySample when the
// caller sets none. 4096 ten-byte keys keep the sampling round's traffic
// trivial while holding the per-boundary quantile error near N/2^6, far
// inside the 1.3x max/mean balance the skew experiments gate.
const DefaultSampleSize = 4096

// ParsePolicy parses a partitioning policy name; "" selects PolicyUniform.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", string(PolicyUniform):
		return PolicyUniform, nil
	case string(PolicySample):
		return PolicySample, nil
	}
	return "", fmt.Errorf("partition: unknown partitioning policy %q (want uniform or sample)", name)
}

// Partitioner assigns records to one of K ordered key-range partitions.
// Implementations must be pure (and so safe for concurrent use) and agree
// across nodes: every node hashes with an identical partitioner built from
// coordinator-distributed state.
//
// Uniform and Splitters are monotone range partitioners: a <= b implies
// Partition(a) <= Partition(b). Output verification requires that —
// verify.PartitionChecker tests membership on the first and last key of an
// ascending block and lets monotonicity cover the keys between. A
// non-monotone implementation (mapreduce.HashPartitioner) is fine for the
// engines but must not be handed to the verifier.
type Partitioner interface {
	// NumPartitions returns K.
	NumPartitions() int
	// Partition returns the partition index in [0, K) for a key.
	// Keys must be kv.KeySize bytes.
	Partition(key []byte) int
}

// Uniform divides the key prefix space [0, 2^64) into K equal ranges.
// Partition(key) = floor(prefix * K / 2^64), computed with a 128-bit
// multiply so there is no bias at the range edges.
type Uniform struct {
	k int
}

// NewUniform returns a Uniform partitioner over k partitions.
// It panics if k is not positive.
func NewUniform(k int) Uniform {
	if k <= 0 {
		panic(fmt.Sprintf("partition: NewUniform(%d)", k))
	}
	return Uniform{k: k}
}

// NumPartitions returns K.
func (u Uniform) NumPartitions() int { return u.k }

// Partition implements Partitioner.
func (u Uniform) Partition(key []byte) int {
	prefix := bePrefix64(key)
	hi, _ := bits.Mul64(prefix, uint64(u.k))
	return int(hi)
}

// bePrefix64 reads the first 8 bytes of key as a big-endian uint64,
// zero-padding short keys. Callers pass kv.KeySize = 10 bytes, which take
// the single-load path; Split's count and scatter passes each call this
// once per record.
func bePrefix64(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << uint(56-8*i)
	}
	return p
}

// Splitters partitions by K-1 ascending boundary keys: partition i holds
// keys k with splitter[i-1] <= k < splitter[i] (lexicographic), partition 0
// everything below splitter[0], partition K-1 everything at or above the
// last splitter.
type Splitters struct {
	bounds [][]byte // len K-1, ascending, each kv.KeySize bytes
}

// NewSplitters builds a splitter partitioner. Boundaries must be ascending
// (strictly, to avoid empty unreachable partitions) and kv.KeySize wide.
func NewSplitters(bounds [][]byte) (Splitters, error) {
	for i, b := range bounds {
		if len(b) != kv.KeySize {
			return Splitters{}, fmt.Errorf("partition: splitter %d has %d bytes, want %d", i, len(b), kv.KeySize)
		}
		if i > 0 && bytes.Compare(bounds[i-1], b) >= 0 {
			return Splitters{}, fmt.Errorf("partition: splitters not strictly ascending at %d", i)
		}
	}
	cp := make([][]byte, len(bounds))
	for i, b := range bounds {
		cp[i] = append([]byte(nil), b...)
	}
	return Splitters{bounds: cp}, nil
}

// NumPartitions returns K = len(splitters)+1.
func (s Splitters) NumPartitions() int { return len(s.bounds) + 1 }

// Partition implements Partitioner via binary search over the boundaries.
func (s Splitters) Partition(key []byte) int {
	return sort.Search(len(s.bounds), func(i int) bool {
		return bytes.Compare(key, s.bounds[i]) < 0
	})
}

// Bounds returns a deep copy of the boundary keys, for wire distribution.
func (s Splitters) Bounds() [][]byte {
	cp := make([][]byte, len(s.bounds))
	for i, b := range s.bounds {
		cp[i] = append([]byte(nil), b...)
	}
	return cp
}

// FromSample builds a Splitters partitioner with k partitions from a sample
// of input records, the way production TeraSort picks balanced boundaries:
// sort the sample and take the k-1 evenly spaced quantile keys. Any sample
// — duplicate-heavy, fewer distinct keys than k, or empty — yields a valid
// partitioner; see SelectSplitters for the repair rules.
func FromSample(sample kv.Records, k int) (Splitters, error) {
	keys := make([]byte, 0, sample.Len()*kv.KeySize)
	for i := 0; i < sample.Len(); i++ {
		keys = append(keys, sample.Key(i)...)
	}
	bounds, err := SelectSplitters(keys, k)
	if err != nil {
		return Splitters{}, err
	}
	return NewSplitters(bounds)
}

// SelectSplitters picks k-1 strictly ascending splitter boundaries from a
// flat buffer of kv.KeySize-wide sample keys, concatenated in any order
// (the sample is sorted here, so the result is independent of gather
// order). Degenerate samples never fail: duplicate quantile keys are
// nudged to the next key in the space, saturation at the top of the key
// space is repaired by a backward pass from the ceiling, and an empty
// sample falls back to the uniform boundaries — the 2^80 key space always
// admits k-1 distinct boundaries for any feasible k. The only error is a
// corrupted buffer whose length is not a whole number of keys, or a
// non-positive k.
func SelectSplitters(keys []byte, k int) ([][]byte, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: SelectSplitters k=%d", k)
	}
	if len(keys)%kv.KeySize != 0 {
		return nil, fmt.Errorf("partition: sample buffer of %d bytes is not a whole number of %d-byte keys", len(keys), kv.KeySize)
	}
	if k == 1 {
		return nil, nil
	}
	n := len(keys) / kv.KeySize
	if n == 0 {
		return UniformBounds(k), nil
	}
	sample := make([][]byte, n)
	for i := range sample {
		sample[i] = keys[i*kv.KeySize : (i+1)*kv.KeySize]
	}
	sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
	bounds := make([][]byte, k-1)
	for i := 1; i < k; i++ {
		bounds[i-1] = append([]byte(nil), sample[i*n/k]...)
	}
	// Forward pass: nudge duplicate quantile keys upward so boundaries stay
	// strictly ascending and no partition's range is empty or out of order.
	saturated := false
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i], bounds[i-1]) <= 0 {
			if next := successor(bounds[i-1]); next != nil {
				bounds[i] = next
			} else {
				bounds[i] = append(bounds[i][:0], bounds[i-1]...)
				saturated = true
			}
		}
	}
	if saturated {
		// The nudge hit the maximal key. Walk back from the top, forcing
		// each boundary strictly below its ceiling.
		for i := len(bounds) - 2; i >= 0; i-- {
			if bytes.Compare(bounds[i], bounds[i+1]) >= 0 {
				prev := predecessor(bounds[i+1])
				if prev == nil {
					return nil, fmt.Errorf("partition: key space exhausted building %d splitters", k)
				}
				bounds[i] = prev
			}
		}
	}
	return bounds, nil
}

// UniformBounds returns the k-1 boundary keys equivalent to the Uniform
// partitioner: boundary i is the smallest key of partition i+1, so a
// Splitters over these bounds assigns every key the same partition
// NewUniform(k) does. Used as the empty-sample fallback and by tests.
func UniformBounds(k int) [][]byte {
	bounds := make([][]byte, k-1)
	for i := range bounds {
		// Smallest prefix p with floor(p*k/2^64) = i+1 is ceil((i+1)*2^64/k).
		q, r := bits.Div64(uint64(i+1), 0, uint64(k))
		if r != 0 {
			q++
		}
		b := make([]byte, kv.KeySize)
		binary.BigEndian.PutUint64(b[:8], q)
		bounds[i] = b
	}
	return bounds
}

// successor returns the smallest key strictly greater than key, or nil if
// key is the maximal key.
func successor(key []byte) []byte {
	out := append([]byte(nil), key...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out
		}
		out[i] = 0
	}
	return nil
}

// predecessor returns the largest key strictly less than key, or nil if
// key is the zero key.
func predecessor(key []byte) []byte {
	out := append([]byte(nil), key...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0 {
			out[i]--
			for j := i + 1; j < len(out); j++ {
				out[j] = 0xFF
			}
			return out
		}
	}
	return nil
}

// SampleStride converts a pooled sample-size target into the row stride of
// the deterministic global sample: every stride-th row of [0, totalRows)
// contributes its key. A stride (rather than a per-node reservoir) makes
// the pooled sample a pure function of the input alone, so every engine,
// placement, and recovery attempt agrees on the splitters. size <= 0
// selects DefaultSampleSize.
func SampleStride(totalRows int64, size int) int64 {
	if size <= 0 {
		size = DefaultSampleSize
	}
	stride := totalRows / int64(size)
	if stride < 1 {
		stride = 1
	}
	return stride
}

// FirstSampleRow returns the smallest sampled global row at or after
// first: the next multiple of the sample stride. Each input holder walks
// its own [first, last) row range with this, and the union over holders is
// exactly the global stride sample.
func FirstSampleRow(first, stride int64) int64 {
	return (first + stride - 1) / stride * stride
}

// EncodeBounds flattens splitter boundaries into the wire form of the
// splitter-agreement broadcast: the k-1 keys concatenated in ascending
// order, kv.KeySize bytes each, no framing (the count is the payload
// length divided by the key width).
func EncodeBounds(bounds [][]byte) []byte {
	out := make([]byte, 0, len(bounds)*kv.KeySize)
	for _, b := range bounds {
		out = append(out, b...)
	}
	return out
}

// DecodeBounds splits a flat boundary payload back into keys. It errors on
// a payload that is not a whole number of keys; ordering and width per key
// are re-validated by NewSplitters on the receiving side.
func DecodeBounds(p []byte) ([][]byte, error) {
	if len(p)%kv.KeySize != 0 {
		return nil, fmt.Errorf("partition: bounds payload of %d bytes is not a whole number of %d-byte keys", len(p), kv.KeySize)
	}
	bounds := make([][]byte, len(p)/kv.KeySize)
	for i := range bounds {
		bounds[i] = append([]byte(nil), p[i*kv.KeySize:(i+1)*kv.KeySize]...)
	}
	return bounds, nil
}

// Imbalance returns the max/mean ratio of a partition histogram — the
// reducer load-balance metric of the skew experiments. An empty or
// all-zero histogram reports 0.
func Imbalance(counts []int) float64 {
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 || len(counts) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return float64(max) / mean
}

// Histogram counts how many of r's records fall in each partition.
// It is the balance diagnostic used by tests and EXPERIMENTS.md.
func Histogram(p Partitioner, r kv.Records) []int {
	counts := make([]int, p.NumPartitions())
	for i := 0; i < r.Len(); i++ {
		counts[p.Partition(r.Key(i))]++
	}
	return counts
}

// Split scatters r's records into K per-partition buffers in one pass:
// the Hash() operation of the Map stage (Section III-A3). Record order
// within a partition preserves input order.
func Split(p Partitioner, r kv.Records) []kv.Records {
	k := p.NumPartitions()
	// First pass: sizes, so each partition is one exact allocation.
	counts := make([]int, k)
	for i := 0; i < r.Len(); i++ {
		counts[p.Partition(r.Key(i))]++
	}
	out := make([]kv.Records, k)
	for j := 0; j < k; j++ {
		out[j] = kv.MakeRecords(counts[j])
	}
	for i := 0; i < r.Len(); i++ {
		j := p.Partition(r.Key(i))
		out[j] = out[j].Append(r.Record(i))
	}
	return out
}

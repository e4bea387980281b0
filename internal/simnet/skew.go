package simnet

import (
	"fmt"
	"strings"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// SkewPoint is one input distribution of the partitioning-policy sweep:
// reducer load imbalance (max partition size over mean) at K reducers
// under the uniform key-range partitioner vs splitters selected from a
// deterministic stride sample of the same input — the measured version of
// the skew problem sample-based partitioning exists to fix. Unlike the
// network sweeps this is not a cost model: the keys are really generated
// and really partitioned.
type SkewPoint struct {
	Dist kv.Distribution
	Rows int64
	K    int
	// UniformImbalance and SampledImbalance are max/mean reducer load
	// under each policy (1.0 = perfectly balanced).
	UniformImbalance float64
	SampledImbalance float64
	// SampleBytes is the sampling round's gathered key volume — the wire
	// cost of the sampled policy's balance.
	SampleBytes int64
}

// skewPoint generates rows keys of dist and partitions them both ways.
func skewPoint(dist kv.Distribution, k int, rows int64, seed uint64, sampleSize int) (SkewPoint, error) {
	gen := kv.NewGenerator(seed, dist)
	stride := partition.SampleStride(rows, sampleSize)
	var sample []byte
	var key [kv.KeySize]byte
	for row := int64(0); row < rows; row += stride {
		gen.Key(key[:], row)
		sample = append(sample, key[:]...)
	}
	bounds, err := partition.SelectSplitters(sample, k)
	if err != nil {
		return SkewPoint{}, err
	}
	sampled, err := partition.NewSplitters(bounds)
	if err != nil {
		return SkewPoint{}, err
	}
	uniform := partition.NewUniform(k)
	uniCounts := make([]int, k)
	smpCounts := make([]int, k)
	for row := int64(0); row < rows; row++ {
		gen.Key(key[:], row)
		uniCounts[uniform.Partition(key[:])]++
		smpCounts[sampled.Partition(key[:])]++
	}
	return SkewPoint{
		Dist: dist, Rows: rows, K: k,
		UniformImbalance: partition.Imbalance(uniCounts),
		SampledImbalance: partition.Imbalance(smpCounts),
		SampleBytes:      int64(len(sample)),
	}, nil
}

// SweepSkew measures uniform-vs-sampled reducer imbalance for every
// distribution in dists at K reducers over rows generated records.
// sampleSize 0 selects partition.DefaultSampleSize.
func SweepSkew(k int, rows int64, seed uint64, sampleSize int, dists []kv.Distribution) ([]SkewPoint, error) {
	out := make([]SkewPoint, 0, len(dists))
	for _, d := range dists {
		p, err := skewPoint(d, k, rows, seed, sampleSize)
		if err != nil {
			return nil, fmt.Errorf("simnet: skew sweep %v: %w", d, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// RenderSkew formats skew sweep points as a text table.
func RenderSkew(title string, pts []SkewPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %10s %4s  %12s %12s %12s\n",
		"dist", "rows", "K", "uniform", "sampled", "sample B")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 68))
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12v %10d %4d  %11.2fx %11.2fx %12d\n",
			p.Dist, p.Rows, p.K, p.UniformImbalance, p.SampledImbalance, p.SampleBytes)
	}
	return b.String()
}

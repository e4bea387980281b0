package main

import (
	"fmt"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// probePartition times the Map scatter on one rank's file: with the
// uniform partitioner every workload uses, and with sampled splitters on
// zipf keys, the same layer as sortd_mix's skewed job uses it.
func probePartition(s *shape) (map[string]float64, error) {
	split := func(p partition.Partitioner, in kv.Records) (float64, error) {
		return timeOp(probeReps, nil, func() error {
			parts := partition.SplitParallel(p, in, 1)
			n := 0
			for _, part := range parts {
				n += part.Len()
			}
			if len(parts) != ranks || n != in.Len() {
				return fmt.Errorf("scatter kept %d of %d rows in %d partitions", n, in.Len(), len(parts))
			}
			return nil
		})
	}
	uniform, err := split(partition.NewUniform(ranks), s.file)
	if err != nil {
		return nil, err
	}

	zipfGen := kv.NewGenerator(s.c.seed, kv.DistZipf)
	zipf := zipfGen.Generate(0, int64(s.file.Len()))
	stride := partition.SampleStride(int64(zipf.Len()), 0)
	var keys []byte
	for i := int64(0); i < int64(zipf.Len()); i += stride {
		keys = append(keys, zipf.Key(int(i))...)
	}
	bounds, err := partition.SelectSplitters(keys, ranks)
	if err != nil {
		return nil, err
	}
	sp, err := partition.NewSplitters(bounds)
	if err != nil {
		return nil, err
	}
	sampled, err := split(sp, zipf)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"partition.split_mb_s":         mbPerS(int64(s.file.Size()), uniform),
		"partition.split_sampled_mb_s": mbPerS(int64(zipf.Size()), sampled),
	}, nil
}

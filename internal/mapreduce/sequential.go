package mapreduce

import (
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// Sequential computes the job's reference output on one goroutine with no
// engine, no shuffle and no sorting machinery beyond the stdlib: map the
// whole input in row order, partition the intermediate records with the
// job's partitioner, sort each partition by key, and group-reduce. By the
// framework's determinism contract the distributed engines must reproduce
// these bytes rank for rank — Sequential is the oracle the mrtest harness
// compares every execution mode against.
func Sequential(job Job) ([]kv.Records, error) {
	job, spec, err := job.normalize()
	if err != nil {
		return nil, err
	}
	input := job.Input
	if input.Len() == 0 {
		input = kv.NewGenerator(job.Seed, spec.KeyDist).Generate(0, job.Rows)
	}
	mapped := kv.TransformRecords(input, job.transform())
	if job.Sampled() {
		// The sampler, written out again for the oracle: the same global
		// stride sample of input rows the engines draw, mapped through the
		// Mapper, keys quantiled — so the engines' splitters are
		// reproduced exactly.
		stride := partition.SampleStride(int64(input.Len()), job.SampleSize)
		sampled := kv.MakeRecords(0)
		for row := int64(0); row < int64(input.Len()); row += stride {
			sampled = sampled.Append(input.Record(int(row)))
		}
		bounds, err := partition.SelectSplitters(
			kv.TransformRecords(sampled, job.transform()).Keys(), job.K)
		if err != nil {
			return nil, err
		}
		sp, err := partition.NewSplitters(bounds)
		if err != nil {
			return nil, err
		}
		job.Part = sp
	}
	parts := partition.SplitParallel(job.Part, mapped, 1)
	outs := make([]kv.Records, job.K)
	for rank, part := range parts {
		part.Sort()
		g := newGrouper(job.Reducer)
		if err := g.Feed(part); err != nil {
			return nil, err
		}
		outs[rank] = g.finish()
	}
	return outs, nil
}

package job_test

import (
	"os"
	"reflect"
	"testing"

	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// referenceSplitters is the sampler with nothing but its definition: every
// stride-th row of the whole materialized input, through the hook if there
// is one, quantiled by SelectSplitters.
func referenceSplitters(all kv.Records, k, size int, hook func(kv.Records) kv.Records) ([][]byte, error) {
	stride := int(partition.SampleStride(int64(all.Len()), size))
	sample := kv.MakeRecords(0)
	for row := 0; row < all.Len(); row += stride {
		sample = sample.Append(all.Record(row))
	}
	if hook != nil {
		sample = hook(sample)
	}
	return partition.SelectSplitters(sample.Keys(), k)
}

// TestDeriveSplittersMatchesReference: for every form a job's input takes —
// generated rows, supplied files that tile the rows along a placement plan
// (a MapReduce job's Input), InputDir part files — with and without a Map hook, and at the edges (no rows, a
// sample as large as the input), the sampler returns exactly the bounds
// of the engine-free reference over the whole input. The part files are
// equal, with the stride dividing their size, which is when positional
// sampling is the global stride walk. Hook-free, ExpectedSplitters agrees.
func TestDeriveSplittersMatchesReference(t *testing.T) {
	const seed = 17
	// A hook that filters and rewrites: drop records whose key starts with
	// an even byte, emit the rest with the key reversed.
	hook := func(r kv.Records) kv.Records {
		return kv.TransformRecords(r, func(rec []byte, emit func([]byte)) {
			if rec[0]%2 == 0 {
				return
			}
			out := append([]byte(nil), rec...)
			for i := 0; i < kv.KeySize; i++ {
				out[i] = rec[kv.KeySize-1-i]
			}
			emit(out)
		})
	}
	// planFiles resolves spec and cuts all along its placement plan.
	planFiles := func(t *testing.T, spec job.Spec, all kv.Records) []kv.Records {
		r, err := spec.Resolve(job.Local{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := r.Strat.Plan(int64(all.Len()))
		if err != nil {
			t.Fatal(err)
		}
		files := make([]kv.Records, plan.NumFiles())
		for i := range files {
			first, last := plan.FileRows(i)
			files[i] = all.Slice(int(first), int(last))
		}
		return files
	}
	generated := func(dist string, rows int64) kv.Records {
		d, err := kv.ParseDistribution(dist)
		if err != nil {
			t.Fatal(err)
		}
		return kv.NewGenerator(seed, d).Generate(0, rows)
	}
	sampled := func(s job.Spec) job.Spec {
		s.Seed, s.Partitioning = seed, "sample"
		return s
	}
	for _, c := range []struct {
		name string
		spec job.Spec
		// input builds the supplied files (nil: the spec's own input) and
		// all the whole input they tile.
		input func(t *testing.T, spec *job.Spec) (files []kv.Records, all kv.Records)
		hook  func(kv.Records) kv.Records
	}{
		{name: "generated-uniform", spec: tera(sampled(job.Spec{K: 4, Rows: 3001, SampleSize: 200}))},
		{name: "generated-zipf", spec: tera(sampled(job.Spec{K: 5, Rows: 3001, SampleSize: 200, DistName: "zipf"}))},
		{name: "generated-dupheavy", spec: tera(sampled(job.Spec{K: 8, Rows: 3001, SampleSize: 200, DistName: "dupheavy"}))},
		{name: "input-clique-r2", spec: coded(sampled(job.Spec{K: 4, R: 2, Rows: 3001, SampleSize: 200, DistName: "zipf"})),
			input: func(t *testing.T, spec *job.Spec) ([]kv.Records, kv.Records) {
				all := generated("zipf", spec.Rows)
				return planFiles(t, *spec, all), all
			}},
		{name: "input-resolvable-r2", spec: coded(sampled(job.Spec{K: 4, R: 2, Placement: "resolvable", Rows: 3001, SampleSize: 200, DistName: "skewed"})),
			input: func(t *testing.T, spec *job.Spec) ([]kv.Records, kv.Records) {
				all := generated("skewed", spec.Rows)
				return planFiles(t, *spec, all), all
			}},
		{name: "inputdir", spec: tera(sampled(job.Spec{K: 4, SampleSize: 100, DistName: "zipf"})),
			input: func(t *testing.T, spec *job.Spec) ([]kv.Records, kv.Records) {
				const perFile = 1000 // stride 4000/100 = 40 divides it
				spec.InputDir = t.TempDir()
				all := generated("zipf", int64(spec.K*perFile))
				for rank := 0; rank < spec.K; rank++ {
					part := all.Slice(rank*perFile, (rank+1)*perFile)
					if err := os.WriteFile(extsort.PartFile(spec.InputDir, rank), part.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return nil, all
			}},
		{name: "transform-hook", spec: coded(sampled(job.Spec{K: 4, R: 2, Rows: 3001, SampleSize: 200, DistName: "zipf"})), hook: hook},
		{name: "no-rows", spec: tera(sampled(job.Spec{K: 4}))},
		{name: "sample-exceeds-rows", spec: tera(sampled(job.Spec{K: 4, Rows: 50, SampleSize: 100, DistName: "sorted"}))},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			var files []kv.Records
			all := generated(spec.DistName, spec.Rows)
			if c.input != nil {
				files, all = c.input(t, &spec)
			}
			want, err := referenceSplitters(all, spec.K, spec.SampleSize, c.hook)
			if err != nil {
				t.Fatal(err)
			}
			got, err := spec.DeriveSplitters(files, c.hook)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sampler bounds %x, reference %x", got, want)
			}
			if files == nil && c.hook == nil {
				if exp, err := spec.ExpectedSplitters(); err != nil || !reflect.DeepEqual(exp, want) {
					t.Fatalf("ExpectedSplitters %x (%v), reference %x", exp, err, want)
				}
			}
		})
	}
}

package coded

import (
	"os"
	"testing"

	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/verify"
)

// The tests in this file pin the spool path of the out-of-core mode: at
// R = 1 groups have two members, so remote-bound intermediate values go to
// per-group disk spools instead of the in-memory store.

// TestBudgetWithFilterAndSkew: the budget path composes with a selecting
// Map Transform and the skewed distribution (uneven partition sizes stress the
// empty-stream and tiny-run paths).
func TestBudgetWithFilterAndSkew(t *testing.T) {
	const k, rows, seed = 5, 5000, 37
	match := func(rec []byte) bool { return rec[kv.KeySize+8]%3 == 0 }
	base := cfgOf(job.Spec{K: k, R: 1, Rows: rows, Seed: seed, DistName: "skewed"})
	base.Transform = selecting(match)
	ref := runAll(t, base)
	cfg := base
	cfg.MemBudget, cfg.SpillDir = 8*1024, t.TempDir()
	results := runAll(t, cfg)
	for rank := range results {
		if !results[rank].Output.Equal(ref[rank].Output) {
			t.Fatalf("rank %d: filtered budget output differs", rank)
		}
	}
}

// TestBudgetWithSuppliedInput: supplied input files feed the block-by-block
// Map identically to the in-memory engine.
func TestBudgetWithSuppliedInput(t *testing.T) {
	const k = 4
	gen := kv.NewGenerator(43, kv.DistUniform)
	input := make([]kv.Records, k)
	for i := range input {
		input[i] = gen.Generate(int64(i*1000), 1000)
	}
	cfg := cfgOf(job.Spec{K: k, R: 1})
	cfg.Local = supplied(input)
	ref := runAll(t, cfg)
	cfg.MemBudget, cfg.SpillDir = 16*1024, t.TempDir()
	results := runAll(t, cfg)
	for rank := range results {
		if !results[rank].Output.Equal(ref[rank].Output) {
			t.Fatalf("rank %d: supplied-input budget output differs", rank)
		}
	}
}

// partFiles supplies the part files in dir as the runtime does: whole to
// an in-memory rank's Place (Load), in blocks to an out-of-core rank's Map
// (Scan).
func partFiles(dir string) job.Local {
	return job.Local{
		Load: func(i int) (kv.Records, error) {
			buf, err := os.ReadFile(extsort.PartFile(dir, i))
			if err != nil {
				return kv.Records{}, err
			}
			return kv.NewRecords(buf)
		},
		Scan: func(i, blockRows int, fn func(kv.Records) error) error {
			return extsort.ScanFile(extsort.PartFile(dir, i), blockRows, fn)
		},
	}
}

// TestInputDirMatchesGenerated: raw on-disk record files (the teragen
// -disk layout) supplied by the runtime produce the same result as
// generating the same rows, in both the in-memory and the budget engine.
func TestInputDirMatchesGenerated(t *testing.T) {
	const k, rows, seed = 4, 4000, 47
	ref := runAll(t, cfgOf(job.Spec{K: k, R: 1, Rows: rows, Seed: seed}))

	dir := t.TempDir()
	gen := kv.NewGenerator(seed, kv.DistUniform)
	bounds := kv.SplitRows(rows, k)
	for i := 0; i < k; i++ {
		recs := gen.Generate(bounds[i], bounds[i+1]-bounds[i])
		if err := os.WriteFile(extsort.PartFile(dir, i), recs.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []int64{0, 24 * 1024} {
		cfg := Config{Spec: job.Spec{Algorithm: job.AlgTeraSort, K: k, MemBudget: budget}, Local: partFiles(dir)}
		if budget > 0 {
			cfg.SpillDir = t.TempDir()
		}
		results := runAll(t, cfg)
		for rank := range results {
			if !results[rank].Output.Equal(ref[rank].Output) {
				t.Fatalf("budget=%d rank %d: file-input output differs", budget, rank)
			}
		}
	}
}

// TestBudgetBoundsPeakMemory is the hard out-of-core guarantee: a cluster
// sorting an input several times larger than the per-worker budget must
// keep its peak live heap near K x budget — far below the input size —
// while still producing (and here discarding through sinks) fully sorted,
// summary-verified output. This is the scenario the subsystem exists for:
// data that cannot fit, sorted anyway.
func TestBudgetBoundsPeakMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression test is slow under -short")
	}
	const (
		k      = 4
		rows   = 320000  // 32 MB of records cluster-wide
		budget = 1 << 20 // 1 MB per worker: worker share is 8x budget
		total  = rows * kv.RecordSize
	)

	var livePeak liveHeapPeak
	sums := make([]verify.Summary, k)
	cfg := cfgOf(job.Spec{K: k, R: 1, Rows: rows, Seed: 53, MemBudget: budget, SpillDir: t.TempDir()})
	cfg.Hooks = livePeak.hooks()
	p := partition.NewUniform(k)
	checkers := make([]*verify.PartitionChecker, k)
	results := runAllWith(t, cfg, func(rank int, c *Config) {
		checkers[rank] = verify.NewPartitionChecker(p, rank)
		c.OutputSink = checkers[rank].Feed
	})
	peak := livePeak.bytes

	for rank := range results {
		if results[rank].SpilledRuns == 0 {
			t.Fatalf("rank %d spilled nothing at 8x budget", rank)
		}
		sums[rank] = checkers[rank].Summary()
	}
	in := verify.DescribeGenerated(kv.NewGenerator(53, kv.DistUniform), rows)
	if err := verify.CheckSummaries(sums, in); err != nil {
		t.Fatal(err)
	}

	t.Logf("peak heap %.1f MB for %.1f MB input at %d x %.1f MB budget",
		float64(peak)/1e6, float64(total)/1e6, k, float64(budget)/1e6)
	// The K workers share this process, so the cluster-wide bound is
	// K x budget; the multiplier covers Go allocator slop and the
	// per-run-cursor block buffers, while staying far below the
	// 32 MB an in-memory run necessarily materializes several times over.
	if limit := uint64(3.5 * k * budget); peak > limit {
		t.Fatalf("peak heap %.1f MB exceeds %.1f MB (3.5 x K x budget)",
			float64(peak)/1e6, float64(limit)/1e6)
	}
	if peak > total/2 {
		t.Fatalf("peak heap %.1f MB not clearly below the %.1f MB input",
			float64(peak)/1e6, float64(total)/1e6)
	}
}

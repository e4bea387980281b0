package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// canonicalize clones records and sorts them by the full record bytes
// (key then value), giving a representative that is independent of how a
// reduce kernel ordered fully-duplicate keys.
func canonicalize(r kv.Records) kv.Records {
	c := r.Clone()
	sort.Sort(fullRecordOrder{c})
	return c
}

// fullRecordOrder sorts records by their entire byte content.
type fullRecordOrder struct{ kv.Records }

func (f fullRecordOrder) Less(i, j int) bool {
	return bytes.Compare(f.Record(i), f.Record(j)) < 0
}

// TestSkewEquivalenceMatrix: under sampled partitioning, every engine
// (uncoded, coded r=2) in every execution mode (monolithic, chunked,
// out-of-core) at procs 1 and 4, clean and through a mid-Map kill
// recovery, produces per-rank output that (a) holds exactly the records
// the sequential oracle assigns that rank — the whole input split by the
// splitters derived from the deterministic stride sample — in sorted
// order, and (b) is byte-identical across every cell of the matrix. The
// oracle is independent of the engines (it never runs one), so the matrix
// catches a sampled run that is self-consistent but partitioned by the
// wrong bounds, which a uniform-vs-sampled diff would miss. Oracle
// equality is up to equal-key record order (the reduce kernels order
// fully-duplicate keys by arrival, not by value, so each engine x mode
// has its own — deterministic — tie order); byte-identity is asserted
// across procs and kill-recovery within each engine x mode. On the
// distinct-key distributions the canonical oracle comparison is already
// full byte equality.
func TestSkewEquivalenceMatrix(t *testing.T) {
	const k, rows, seed = 4, 3000, 101
	for _, distName := range []string{"zipf", "sorted", "dupheavy"} {
		dist, err := kv.ParseDistribution(distName)
		if err != nil {
			t.Fatal(err)
		}
		base := Spec{
			Algorithm: AlgTeraSort, K: k, Rows: rows, Seed: seed,
			DistName: distName, Partitioning: "sample", KeepOutput: true,
		}
		bounds, err := base.ExpectedSplitters()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := partition.NewSplitters(bounds)
		if err != nil {
			t.Fatal(err)
		}
		input := kv.NewGenerator(seed, dist).Generate(0, rows)
		input.Sort()
		oracle := partition.Split(sp, input)
		for rank := range oracle {
			oracle[rank] = canonicalize(oracle[rank])
		}

		references := make(map[string][]kv.Records)
		check := func(t *testing.T, spec Spec, cell string) {
			t.Helper()
			job, err := RunLocal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !job.Validated {
				t.Fatal("not validated")
			}
			reference := references[cell]
			for rank := 0; rank < k; rank++ {
				out := job.Workers[rank].Output
				if !out.IsSorted() {
					t.Fatalf("rank %d output not sorted", rank)
				}
				if !canonicalize(out).Equal(oracle[rank]) {
					t.Fatalf("rank %d records differ from the sequential oracle (%d rows vs %d)",
						rank, out.Len(), oracle[rank].Len())
				}
				if reference != nil && !out.Equal(reference[rank]) {
					t.Fatalf("rank %d output not byte-identical across procs/recovery in cell %s", rank, cell)
				}
			}
			if reference == nil {
				reference = make([]kv.Records, k)
				for rank := 0; rank < k; rank++ {
					reference[rank] = job.Workers[rank].Output
				}
				references[cell] = reference
			}
		}

		for _, alg := range []struct {
			name string
			mod  func(*Spec)
		}{
			{"tera", func(s *Spec) {}},
			{"coded", func(s *Spec) { s.Algorithm = AlgCoded; s.R = 2 }},
		} {
			for _, mode := range []struct {
				name string
				mod  func(*Spec)
			}{
				{"mono", func(s *Spec) {}},
				{"chunked", func(s *Spec) { s.ChunkRows = 512; s.Window = 4 }},
				{"extsort", func(s *Spec) { s.MemBudget = rows * kv.RecordSize / 8 }},
			} {
				for _, procs := range []int{1, 4} {
					for _, kill := range []bool{false, true} {
						spec := base
						alg.mod(&spec)
						mode.mod(&spec)
						spec.Parallelism = procs
						if kill {
							spec.Faults = []FaultSpec{{Rank: 1, Stage: "Map", Kind: "kill"}}
							spec.StageDeadline = 5 * time.Second
							spec.MaxAttempts = 2
						}
						name := fmt.Sprintf("%s/%s/%s/procs=%d/kill=%v",
							distName, alg.name, mode.name, procs, kill)
						cell := alg.name + "/" + mode.name
						t.Run(name, func(t *testing.T) { check(t, spec, cell) })
					}
				}
			}
		}
	}
}

// TestSampledPresetSplitters: a sampled spec with the splitters preset
// (the TCP coordinator's path) sorts byte-identically to one whose
// splitters are derived from its input.
func TestSampledPresetSplitters(t *testing.T) {
	const k, rows, seed = 4, 2000, 7
	base := Spec{
		Algorithm: AlgTeraSort, K: k, Rows: rows, Seed: seed,
		DistName: "zipf", Partitioning: "sample", KeepOutput: true,
	}
	bounds, err := base.ExpectedSplitters()
	if err != nil {
		t.Fatal(err)
	}
	preset := base
	preset.Splitters = bounds
	ref, err := RunLocal(base)
	if err != nil {
		t.Fatal(err)
	}
	job, err := RunLocal(preset)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < k; rank++ {
		if !job.Workers[rank].Output.Equal(ref.Workers[rank].Output) {
			t.Fatalf("rank %d preset output differs from sampled-round output", rank)
		}
	}
}

// TestSampledBalancesZipf is the acceptance scenario at test scale: on a
// zipf input at K=8, uniform partitioning overloads the max reducer past
// twice the mean while sampled partitioning holds it within 1.3x. Every
// other skewed distribution is a row too, held to the rule that sampling
// never partitions worse than the uniform policy it replaces.
func TestSampledBalancesZipf(t *testing.T) {
	const k, rows, seed = 8, 1 << 14, 2017
	imbalance := func(job *JobReport) float64 {
		counts := make([]int, len(job.Workers))
		for i, w := range job.Workers {
			counts[i] = int(w.OutputRows)
		}
		return partition.Imbalance(counts)
	}
	for _, dist := range kv.SkewedDistributions {
		name := dist.String()
		t.Run(name, func(t *testing.T) {
			uni, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: k, Rows: rows, Seed: seed, DistName: name})
			if err != nil {
				t.Fatal(err)
			}
			smp, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: k, Rows: rows, Seed: seed,
				DistName: name, Partitioning: "sample"})
			if err != nil {
				t.Fatal(err)
			}
			u, s := imbalance(uni), imbalance(smp)
			if dist == kv.DistZipf {
				if u <= 2.0 {
					t.Fatalf("uniform imbalance %.2fx, want > 2x (zipf input not skewed enough)", u)
				}
				if s > 1.3 {
					t.Fatalf("sampled imbalance %.2fx, want <= 1.3x", s)
				}
			}
			if u > 1 && s >= u {
				t.Fatalf("sampled imbalance %.2fx, want below uniform's %.2fx", s, u)
			}
		})
	}
}

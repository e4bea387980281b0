package cluster

import (
	"testing"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

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

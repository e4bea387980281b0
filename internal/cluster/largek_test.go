package cluster

import "testing"

// TestLargeKResolvableMux is the large-K smoke the resolvable strategy
// exists for: a K=64 coded sort — far past the clique scheme's C(64, r+1)
// CodeGen wall — completes on one machine as 64 rank goroutines, and stays
// byte-identical to the uncoded TeraSort oracle at the same input.
func TestLargeKResolvableMux(t *testing.T) {
	const k, r, rows, seed = 64, 2, 6400, 97
	ref, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: k, Rows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	job, err := RunLocal(Spec{
		Algorithm: AlgCoded, K: k, R: r, Rows: rows, Seed: seed,
		Placement: "resolvable",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Validated {
		t.Fatal("K=64 resolvable job not validated")
	}
	for rank := 0; rank < k; rank++ {
		if job.Workers[rank].OutputChecksum != ref.Workers[rank].OutputChecksum ||
			job.Workers[rank].OutputRows != ref.Workers[rank].OutputRows {
			t.Fatalf("rank %d differs from TeraSort oracle", rank)
		}
	}
}

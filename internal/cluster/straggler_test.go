package cluster

import (
	"testing"

	"codedterasort/internal/stats"
)

// TestStragglerSlowsShuffle: one slow node under the serial schedule
// stretches the whole cluster's shuffle — the straggler effect the coded
// computing literature the paper cites ([11]) targets — in process and
// over TCP, where each worker shapes its own mesh.
func TestStragglerSlowsShuffle(t *testing.T) {
	for _, dep := range deployments {
		base := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 60000, Seed: 15, RateMbps: 200}
		healthy, err := dep.run(t, base)
		if err != nil {
			t.Fatal(err)
		}
		slow := base
		slow.StragglerFactor = 4
		slow.StragglerRank = 1
		straggling, err := dep.run(t, slow)
		if err != nil {
			t.Fatal(err)
		}
		h := healthy.Times[stats.StageShuffle].Seconds()
		s := straggling.Times[stats.StageShuffle].Seconds()
		if s <= h*1.3 {
			t.Fatalf("%sstraggler had little effect: healthy %.3fs vs straggling %.3fs", dep.prefix, h, s)
		}
		if !straggling.Validated {
			t.Fatalf("%sstraggling job must still be correct", dep.prefix)
		}
	}
}

// TestStragglerAffectsCodedToo: the coded run is equally schedule-bound;
// correctness holds with a slow node.
func TestStragglerCodedCorrect(t *testing.T) {
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 8000, Seed: 16,
		RateMbps: 800, StragglerFactor: 3, StragglerRank: 2}
	job, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Validated {
		t.Fatalf("not validated")
	}
}

// TestStragglerFactorBelowOneIgnored: factors <= 1 are no-ops.
func TestStragglerFactorBelowOneIgnored(t *testing.T) {
	spec := Spec{Algorithm: AlgTeraSort, K: 3, Rows: 300, Seed: 17,
		RateMbps: 5000, StragglerFactor: 0.5}
	if _, err := RunLocal(spec); err != nil {
		t.Fatal(err)
	}
}

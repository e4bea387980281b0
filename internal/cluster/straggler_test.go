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
	for _, deploy := range []string{"local", "tcp"} {
		base := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 20000, Seed: 15, RateMbps: 50}
		run, err := runJob(t, deploy, base, 0)
		if err != nil {
			t.Fatal(err)
		}
		healthy := run.rep
		slow := base
		slow.StragglerFactor = 4
		slow.StragglerRank = 1
		if run, err = runJob(t, deploy, slow, 0); err != nil {
			t.Fatal(err)
		}
		straggling := run.rep
		h := healthy.Times[stats.StageShuffle].Seconds()
		s := straggling.Times[stats.StageShuffle].Seconds()
		t.Logf("%s: healthy %.3fs, straggling %.3fs (%.2fx)", deploy, h, s, s/h)
		if s <= h*1.3 {
			t.Fatalf("%s: straggler had little effect: healthy %.3fs vs straggling %.3fs", deploy, h, s)
		}
		if !straggling.Validated {
			t.Fatalf("%s: straggling job must still be correct", deploy)
		}
	}
}

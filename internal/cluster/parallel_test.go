package cluster

import (
	"testing"

	"codedterasort/internal/stats"
)

// TestParallelShuffleFasterUnderShaping: with per-node egress shaping,
// K concurrent senders finish the same total load roughly K times faster
// than the one-at-a-time schedule.
func TestParallelShuffleFasterUnderShaping(t *testing.T) {
	base := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 80000, Seed: 13, RateMbps: 200}
	serial, err := RunLocal(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.ParallelShuffle = true
	parallel, err := RunLocal(par)
	if err != nil {
		t.Fatal(err)
	}
	s := serial.Times[stats.StageShuffle].Seconds()
	p := parallel.Times[stats.StageShuffle].Seconds()
	if p >= s {
		t.Fatalf("parallel shuffle (%.3fs) not faster than serial (%.3fs)", p, s)
	}
	// Ideal gain is K=4; demand at least 2x to stay robust on a loaded
	// 2-core test machine.
	if s/p < 2 {
		t.Fatalf("parallel gain only %.2fx (serial %.3fs, parallel %.3fs)", s/p, s, p)
	}
}

// TestPerMessageOverheadDominatesSmallMessages: a per-message cost
// (Spec.PerMessage) on every rank lengthens the Shuffle of a job whose
// messages are small, so the serial schedule pays it once per message.
// One slow rank is Spec.StragglerFactor's, tested in straggler_test.go.
func TestPerMessageOverheadDominatesSmallMessages(t *testing.T) {
	fast, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: 4, Rows: 400, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: 4, Rows: 400, Seed: 14,
		PerMessage: 5_000_000}) // 5ms per message
	if err != nil {
		t.Fatal(err)
	}
	if slow.Times[stats.StageShuffle] <= fast.Times[stats.StageShuffle] {
		t.Fatalf("per-message overhead had no effect")
	}
}

package cluster

import (
	"testing"

	"codedterasort/internal/stats"
)

// TestMonitorNamesScheduledStage: a rank that fails is blamed on the first
// column of its job's schedule it has not completed — never on a column
// the schedule skips — and on the schedule's last column once it has
// completed them all.
func TestMonitorNamesScheduledStage(t *testing.T) {
	columns := []stats.Stage{stats.StageMap, stats.StageShuffle, stats.StageReduce}
	for _, c := range []struct {
		done []stats.Stage
		want stats.Stage
	}{
		{nil, stats.StageMap},
		{columns[:1], stats.StageShuffle},
		{columns, stats.StageReduce},
	} {
		m := newMonitor(2, columns, 0, 1, func() {})
		for _, st := range c.done {
			m.StageEnd(1, st)
		}
		m.Errored(1)
		want := Suspect{Rank: 1, Stage: c.want, Attempt: 1, Reason: "failed"}
		if got := m.Suspects(); len(got) != 1 || got[0] != want {
			t.Fatalf("after %v: suspects %v, want [%v]", c.done, got, want)
		}
	}
}

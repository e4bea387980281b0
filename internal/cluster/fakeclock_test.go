//go:build goexperiment.synctest

// The fake-clock tests run the live runtime — the engine over memnet and
// netem — inside a testing/synctest bubble, where time.Sleep and timers
// read a fake clock that advances only once every goroutine of the bubble
// is blocked. The network then costs exactly its modelled time and compute
// costs nothing, so a bound can be exact where a wall-clock test must leave
// room for a loaded host. They need the experiment:
//
//	GOEXPERIMENT=synctest go test -run FakeClock ./internal/cluster/

package cluster

import (
	"runtime"
	"testing"
	"testing/synctest"
	"time"

	"codedterasort/internal/stats"
)

// fakeClockTimeout bounds one bubble's wall time. A goroutine blocked on
// what the fake clock does not count as blocked — a mutex held across a
// sleep, a socket — stalls its bubble instead of failing it.
const fakeClockTimeout = time.Minute

// runFakeClock runs spec with RunLocal in a bubble and returns its report,
// failing the test on an error or on a bubble still running after
// fakeClockTimeout of wall time.
func runFakeClock(t *testing.T, spec Spec) *JobReport {
	t.Helper()
	var rep *JobReport
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		synctest.Run(func() { rep, err = RunLocal(spec) })
	}()
	select {
	case <-done:
	case <-time.After(fakeClockTimeout):
		t.Fatalf("fake-clock run still going after %v of wall time: %+v", fakeClockTimeout, spec)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFakeClockCappedShuffle: the capped monolithic Shuffle at K = 4 costs
// its payload's line time, payload x 8 / rate, within 2 % at r = 1 and 2
// and within 5 % at r = 3, where every packet crosses three links: a relay
// forwards each segment as it lands, so the tail ends one segment after its
// root. Each cell reads the same time in three runs.
func TestFakeClockCappedShuffle(t *testing.T) {
	const rate = 40 // Mbps: 1.5 s of fake line time at r = 1
	for _, c := range []struct {
		r   int
		tol float64
	}{{1, 0.02}, {2, 0.02}, {3, 0.05}} {
		spec := Spec{Algorithm: AlgCoded, K: 4, R: c.r, Rows: 100_000, Seed: 31, RateMbps: rate}
		var first time.Duration
		for run := range 3 {
			rep := runFakeClock(t, spec)
			shuffle := rep.Times[stats.StageShuffle]
			line := float64(rep.ShuffleLoadBytes) * 8 / (rate * 1e6)
			ratio := shuffle.Seconds() / line
			t.Logf("r=%d run %d: Shuffle %v, payload %d B, line time %.4f s, ratio %.4f",
				c.r, run, shuffle, rep.ShuffleLoadBytes, line, ratio)
			if ratio < 1-c.tol || ratio > 1+c.tol {
				t.Fatalf("r=%d: Shuffle %v is %.4fx the payload's line time, want within %.0f%%",
					c.r, shuffle, ratio, 100*c.tol)
			}
			if run == 0 {
				first = shuffle
			} else if shuffle != first {
				t.Fatalf("r=%d: Shuffle %v in run %d, %v in run 0", c.r, shuffle, run, first)
			}
		}
	}
}

// TestFakeClockParallelShuffleFasterUnderShaping is
// TestParallelShuffleFasterUnderShaping on the fake clock: K concurrent
// senders finish the same load K times faster than the one-at-a-time
// schedule, within the imbalance of the ranks' loads.
func TestFakeClockParallelShuffleFasterUnderShaping(t *testing.T) {
	base := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 80000, Seed: 13, RateMbps: 200}
	serial := runFakeClock(t, base)
	par := base
	par.ParallelShuffle = true
	parallel := runFakeClock(t, par)
	s := serial.Times[stats.StageShuffle].Seconds()
	p := parallel.Times[stats.StageShuffle].Seconds()
	t.Logf("serial %.4f s, parallel %.4f s, gain %.3fx", s, p, s/p)
	if gain := s / p; gain < 3.9 || gain > 4.0 {
		t.Fatalf("parallel gain %.3fx (serial %.4f s, parallel %.4f s), want 3.9-4.0", gain, s, p)
	}
}

// TestFakeClockStragglerSlowsShuffle is TestStragglerSlowsShuffle on the
// fake clock, in process: rank 1's egress at a quarter of the rate. Under
// the serial schedule the four roots take the wire one after another, so
// the straggler's turn costs four times its line time and the Shuffle
// (1 + 4 + 1 + 1) / 4 = 7/4 of the healthy one's, within the spread of the
// ranks' loads. Each run reads the same time twice.
func TestFakeClockStragglerSlowsShuffle(t *testing.T) {
	healthy := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 20000, Seed: 15, RateMbps: 50}
	slow := healthy
	slow.StragglerFactor, slow.StragglerRank = 4, 1
	shuffle := func(spec Spec) float64 {
		first := runFakeClock(t, spec).Times[stats.StageShuffle]
		if again := runFakeClock(t, spec).Times[stats.StageShuffle]; again != first {
			t.Fatalf("Shuffle %v, then %v: %+v", first, again, spec)
		}
		return first.Seconds()
	}
	h, s := shuffle(healthy), shuffle(slow)
	t.Logf("healthy %.4f s, straggling %.4f s (%.3fx)", h, s, s/h)
	if ratio := s / h; ratio < 1.70 || ratio > 1.78 {
		t.Fatalf("straggler slowed the Shuffle %.3fx (healthy %.4f s, straggling %.4f s), want 1.70-1.78", ratio, h, s)
	}
}

// TestFakeClockParallelCappedShuffle: under ParallelShuffle every root
// sends at once on its own capped link, and a rank runs one receiver per
// root, each taking and relaying its root's segments as they land, so no
// root's packets wait on another root's. The monolithic Shuffle then costs
// its busiest link, that rank's wire bytes x 8 / rate: within 2 % at r = 1
// and 3. At r = 2 it reads 1.155x, held to 1.20x. A single receive loop
// that took the roots one after another read 1.334x at r = 2 and 1.336x at
// r = 3. Each cell reads the same time in three runs: a rank's receivers
// and its sender can reach for its link at one fake instant, and which
// takes it first is the scheduler's choice, so the bubble runs on one P,
// where that choice is the same every run.
func TestFakeClockParallelCappedShuffle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rate = 40 // Mbps
	for _, c := range []struct {
		r        int
		min, max float64
	}{{1, 0.98, 1.02}, {2, 0.98, 1.20}, {3, 0.98, 1.02}} {
		spec := Spec{Algorithm: AlgCoded, K: 4, R: c.r, Rows: 100_000, Seed: 31, RateMbps: rate, ParallelShuffle: true}
		var first time.Duration
		for run := range 3 {
			rep := runFakeClock(t, spec)
			shuffle := rep.Times[stats.StageShuffle]
			var busiest int64
			for _, w := range rep.Workers {
				busiest = max(busiest, w.WireBytes)
			}
			link := float64(busiest) * 8 / (rate * 1e6)
			ratio := shuffle.Seconds() / link
			t.Logf("r=%d run %d: Shuffle %v, busiest link %d B, %.4f s, ratio %.4f", c.r, run, shuffle, busiest, link, ratio)
			if ratio < c.min || ratio > c.max {
				t.Fatalf("r=%d: parallel Shuffle %v is %.4fx its busiest link, want %.2f-%.2f", c.r, shuffle, ratio, c.min, c.max)
			}
			if run == 0 {
				first = shuffle
			} else if shuffle != first {
				t.Fatalf("r=%d: Shuffle %v in run %d, %v in run 0", c.r, shuffle, run, first)
			}
		}
	}
}

// TestFakeClockPerMessageOverhead is
// TestPerMessageOverheadDominatesSmallMessages on the fake clock: 400 rows
// make every message small, so the Shuffle costs PerMessage per message on
// the critical path, exactly. Every message holds its sender's link 5 ms,
// and under the serial schedule the messages follow one another:
//   - rank 0 leaves the Map barrier by releasing ranks 1, 2 and 3 in turn,
//     so rank 1 starts its Shuffle at message time 1, rank 2 at 2, ranks 0
//     and 3 at 3;
//   - then each root in turn sends its three packets, one per peer in
//     group order, and passes the token to the next root: rank 0's packets
//     land at 4, 5 and 6 and its token at 7, rank 1's at 8-10 and 11, rank
//     2's at 12-14 and 15, and rank 3's, which passes no token, go to ranks
//     0, 1 and 2 at 16, 17 and 18.
//
// So rank 1's Shuffle lasts 17 - 1 = 16 message times and rank 2's 18 - 2
// = 16; rank 0's lasts 16 - 3 = 13 and rank 3's, which ends with its own
// last send, 18 - 3 = 15. The job's Shuffle, the ranks' maximum, is 16 x
// 5 ms = 80 ms; without PerMessage it is 0. Each reads the same in three
// runs.
func TestFakeClockPerMessageOverhead(t *testing.T) {
	for _, c := range []struct {
		perMessage, want time.Duration
	}{{0, 0}, {5 * time.Millisecond, 80 * time.Millisecond}} {
		spec := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 400, Seed: 14, PerMessage: c.perMessage}
		for run := range 3 {
			if got := runFakeClock(t, spec).Times[stats.StageShuffle]; got != c.want {
				t.Fatalf("PerMessage %v, run %d: Shuffle %v, want %v", c.perMessage, run, got, c.want)
			}
		}
	}
}

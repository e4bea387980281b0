package cluster

import (
	"fmt"
	"sync"
	"time"

	"codedterasort/internal/stats"
)

// Suspect is one detected fault: a rank declared dead or straggling, with
// the stage it was caught at and the attempt it struck.
type Suspect struct {
	Rank    int
	Stage   stats.Stage
	Attempt int
	// Reason is "died" (crash signal: worker goroutine exit, injected
	// kill, or a broken coordinator connection), "missed deadline" (the
	// rank fell StageDeadline behind its fastest peer, or stopped
	// heartbeating), or "failed" (the rank's worker exited with a genuine
	// error — the attempt is canceled to unblock its peers, but the error
	// is surfaced rather than recovered from).
	Reason string
}

// String renders the suspect for error messages and reports.
func (s Suspect) String() string {
	return fmt.Sprintf("rank %d %s at %v (attempt %d)", s.Rank, s.Reason, s.Stage, s.Attempt)
}

// monitor implements the straggler/failure detection protocol of a
// supervised attempt, whichever launcher runs its ranks. Two signals feed
// it:
//
//   - Stage progress: every rank's StageEnd events (engine hooks locally,
//     progress frames over TCP). The deadline rule is peer-relative — the
//     synchronous-stage protocol makes per-stage times comparable across
//     ranks, so a rank that has not finished a stage StageDeadline after
//     the first rank finished it is straggling. This is the "missed its
//     stage barrier past a configurable threshold" rule: lagging ranks are
//     exactly the ones the barrier is waiting for.
//   - Liveness: crash signals (Crashed) fire immediately; over TCP,
//     Alive-stamped heartbeats feed an absolute timeout so a silently dead
//     worker (no crash signal, no progress) is still detected. A rank's
//     first Alive arms the timeout for it, so in-process ranks, which send
//     no heartbeats, are never subject to it.
//
// On the first detection the monitor records the suspects and fires the
// cancel callback exactly once — the attempt's abort path (the launcher
// closes the mesh in process, broadcasts abort frames over TCP), which
// unblocks every peer stuck at the dead rank's barrier.
type monitor struct {
	k        int
	columns  []stats.Stage // the job's schedule, in run order
	deadline time.Duration // 0 disables the deadline/liveness rules
	attempt  int
	cancel   func()

	mu        sync.Mutex
	firstDone [stats.NumStages]time.Time
	done      [stats.NumStages][]bool
	lastSeen  []time.Time // zero: liveness rule off for the rank
	suspects  []Suspect
	fired     bool
	stop      chan struct{}
	stopOnce  sync.Once
}

// newMonitor builds a monitor for a k-rank attempt of a job whose schedule
// is columns (coded.Columns). deadline <= 0 disables the deadline rules
// (crash detection stays active). cancel is fired exactly once, on the
// first detection.
func newMonitor(k int, columns []stats.Stage, deadline time.Duration, attempt int, cancel func()) *monitor {
	m := &monitor{
		k: k, columns: columns, deadline: deadline, attempt: attempt,
		cancel: cancel, lastSeen: make([]time.Time, k),
		stop: make(chan struct{}),
	}
	for st := range m.done {
		m.done[st] = make([]bool, k)
	}
	return m
}

// StageEnd records that rank finished the stage.
func (m *monitor) StageEnd(rank int, st stats.Stage) {
	if st < 0 || st >= stats.NumStages || rank < 0 || rank >= m.k {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done[st][rank] {
		m.done[st][rank] = true
		if m.firstDone[st].IsZero() {
			m.firstDone[st] = time.Now()
		}
	}
}

// Alive records a liveness heartbeat or progress frame from rank; the
// first arms the liveness timeout for it.
func (m *monitor) Alive(rank int) {
	if rank < 0 || rank >= m.k {
		return
	}
	m.mu.Lock()
	m.lastSeen[rank] = time.Now()
	m.mu.Unlock()
}

// Done records that rank delivered its final report: its heartbeats stop
// with it, so the liveness rule is disarmed for it — it must never condemn
// a rank that already finished while slower peers are still working.
func (m *monitor) Done(rank int) {
	if rank < 0 || rank >= m.k {
		return
	}
	m.mu.Lock()
	m.lastSeen[rank] = time.Time{}
	m.mu.Unlock()
}

// Crashed reports a crash signal for rank at stage st and triggers the
// cancel path: crash detection needs no deadline, the signal itself is
// proof of death.
func (m *monitor) Crashed(rank int, st stats.Stage) {
	m.detect(Suspect{Rank: rank, Stage: st, Reason: "died"}, false)
}

// CrashedAtLast reports a crash with the stage inferred from the rank's
// recorded progress — the TCP launcher's path, where a broken worker
// connection says nothing about the stage the process died in.
func (m *monitor) CrashedAtLast(rank int) {
	m.detect(Suspect{Rank: rank, Reason: "died"}, true)
}

// Errored reports a rank whose worker exited with a genuine error (not an
// injected death) and triggers the cancel path: in a barrier-synchronous
// job any exited rank strands its peers, so the attempt must be canceled
// for them to unblock regardless of why the rank left.
func (m *monitor) Errored(rank int) {
	m.detect(Suspect{Rank: rank, Reason: "failed"}, true)
}

// detect records s as a suspect of this attempt — at the rank's next
// scheduled stage when inferStage is set — and fires cancel on the first
// detection.
func (m *monitor) detect(s Suspect, inferStage bool) {
	m.mu.Lock()
	s.Attempt = m.attempt
	if inferStage {
		s.Stage = m.nextStage(s.Rank)
	}
	m.addSuspect(s)
	fire := m.markFired()
	m.mu.Unlock()
	if fire {
		m.cancel()
	}
}

// addSuspect records a suspect, deduplicating by rank. Once detection has
// fired the list is frozen: the abort path makes every other worker fail
// too, and those casualties are not suspects. Callers hold mu.
func (m *monitor) addSuspect(s Suspect) {
	if m.fired {
		return
	}
	for _, have := range m.suspects {
		if have.Rank == s.Rank {
			return
		}
	}
	m.suspects = append(m.suspects, s)
}

// markFired flips the fired latch; the caller runs cancel when it returns
// true. Callers hold mu.
func (m *monitor) markFired() bool {
	if m.fired {
		return false
	}
	m.fired = true
	return true
}

// Watch starts the deadline watchdog; a no-op when deadlines are disabled.
// Stop must be called when the attempt ends.
func (m *monitor) Watch() {
	if m.deadline <= 0 {
		return
	}
	tick := m.deadline / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if m.sweep() {
					return
				}
			}
		}
	}()
}

// sweep applies the deadline rules once; it reports whether detection
// fired (the watchdog's exit condition).
func (m *monitor) sweep() bool {
	now := time.Now()
	m.mu.Lock()
	for st := stats.Stage(0); st < stats.NumStages; st++ {
		first := m.firstDone[st]
		if first.IsZero() || now.Sub(first) < m.deadline {
			continue
		}
		for r := 0; r < m.k; r++ {
			if !m.done[st][r] {
				m.addSuspect(Suspect{Rank: r, Stage: st, Attempt: m.attempt, Reason: "missed deadline"})
			}
		}
	}
	for r := 0; r < m.k; r++ {
		if seen := m.lastSeen[r]; !seen.IsZero() && now.Sub(seen) > m.deadline {
			m.addSuspect(Suspect{Rank: r, Stage: m.nextStage(r), Attempt: m.attempt, Reason: "missed deadline"})
		}
	}
	fire := len(m.suspects) > 0 && m.markFired()
	m.mu.Unlock()
	if fire {
		m.cancel()
	}
	return fire
}

// nextStage returns the first column of the job's schedule that rank has
// not completed — the best guess at where a silent or failed rank is stuck
// — or the schedule's last column once it has completed them all. Callers
// hold mu.
func (m *monitor) nextStage(rank int) stats.Stage {
	for _, st := range m.columns {
		if !m.done[st][rank] {
			return st
		}
	}
	return m.columns[len(m.columns)-1]
}

// Stop halts the watchdog.
func (m *monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

// Suspects returns the detections of this attempt (empty for a clean run).
func (m *monitor) Suspects() []Suspect {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Suspect(nil), m.suspects...)
}

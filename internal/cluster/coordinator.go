package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"codedterasort/internal/coded"
	"codedterasort/internal/stats"
	"codedterasort/internal/verify"
)

// Coordinator is the Fig 8 control node: it accepts worker registrations,
// assigns ranks, distributes the job spec and mesh addresses, and collects
// result reports. It never touches record data — the row-addressable
// generator replaces its role of copying input files onto worker disks,
// each file's lowest-ranked holder reports the file's description as it
// placed it, and workers report partition checksums instead of shipping
// output back.
type Coordinator struct {
	ln *net.TCPListener
}

// NewCoordinator starts a coordinator listening on addr
// (e.g. "127.0.0.1:0" for a dynamic port).
func NewCoordinator(addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	return &Coordinator{ln: ln.(*net.TCPListener)}, nil
}

// Addr returns the coordinator's listen address for workers to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops accepting workers.
func (c *Coordinator) Close() error { return c.ln.Close() }

// RunJob runs the job under Supervise's attempt loop with worker processes
// as the ranks, and verifies the output. A worker that dies (its connection
// breaks) is declared faulty; with Spec.StageDeadline armed, so is one that
// stops heartbeating or falls a full StageDeadline behind its fastest peer
// on a stage. The coordinator then broadcasts an abort — every surviving
// worker cancels its attempt instead of blocking at the faulty rank's
// barrier — and the job re-runs on the next K workers to register (workers
// are one-shot), up to Spec.MaxAttempts, or fails naming the suspects.
// Output never rides the wire: each worker checks its partition's order
// and membership as it reduces and reports its digest, and the digests
// must total the input's. Nor does the input: the coordinator takes the
// input's description from the successful attempt's reports, one per file
// from the file's lowest-ranked holder, which digested it as it placed it,
// and refuses an input with a file that no report or two describe.
func (c *Coordinator) RunJob(spec Spec) (*JobReport, error) {
	jp, err := prepare(spec)
	if err != nil {
		return nil, err
	}
	rep, err := supervise(context.Background(), jp.spec, nil, c.launch)
	if err != nil {
		return nil, err
	}
	rep.Spec = spec
	in, err := describedInput(jp.plan, spec.InputDir == "", rep.Workers)
	if err != nil {
		return nil, fmt.Errorf("cluster: output verification failed: %w", err)
	}
	sums := make([]verify.Summary, len(rep.Workers))
	for r, w := range rep.Workers {
		sums[r] = verify.Summary{Rows: w.OutputRows, Checksum: w.OutputChecksum}
	}
	if err := verifyOutput(rep, jp.part, in, sums, nil); err != nil {
		return nil, err
	}
	return rep, nil
}

// launch is the TCP launcher: one attempt on the next K workers to
// register, ranked in registration order. A retry's registrations must
// arrive within StageDeadline when one is armed, since a respawned worker
// that never comes would otherwise hang the job. Every worker connection
// carries workerMsg frames (progress, heartbeats when the deadline is
// armed, the final report) that feed mon; an abort is broadcast when ctx
// is done.
func (c *Coordinator) launch(ctx context.Context, spec Spec, mon *monitor, hooks coded.Hooks) ([]WorkerReport, []error, error) {
	var conns []net.Conn
	defer func() {
		for _, conn := range conns {
			conn.Close()
		}
	}()
	if mon.attempt > 1 && spec.StageDeadline > 0 {
		c.ln.SetDeadline(time.Now().Add(spec.StageDeadline))
		defer c.ln.SetDeadline(time.Time{})
	}
	addrs := make([]string, 0, spec.K)
	for len(conns) < spec.K {
		conn, err := c.ln.Accept()
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: accepting worker %d of attempt %d: %w", len(conns), mon.attempt, err)
		}
		var reg registerMsg
		if err := readFrame(conn, &reg); err != nil {
			conn.Close()
			return nil, nil, fmt.Errorf("cluster: worker %d registration: %w", len(conns), err)
		}
		conns = append(conns, conn)
		addrs = append(addrs, reg.MeshAddr)
	}
	for rank, conn := range conns {
		if err := writeFrame(conn, assignMsg{Rank: rank, Addrs: addrs, Spec: spec}); err != nil {
			return nil, nil, fmt.Errorf("cluster: assigning rank %d: %w", rank, err)
		}
		// A registered worker is alive: its liveness clock starts now.
		mon.Alive(rank)
	}
	stop := context.AfterFunc(ctx, func() {
		for _, conn := range conns {
			_ = writeFrame(conn, abortMsg{Reason: "fault detected"})
		}
	})
	defer stop()
	reports := make([]WorkerReport, spec.K)
	errs := make([]error, spec.K)
	var wg sync.WaitGroup
	for rank, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[rank], errs[rank] = collectWorker(rank, conn, mon, hooks)
		}()
	}
	wg.Wait()
	return reports, errs, nil
}

// collectWorker consumes one worker connection's workerMsg frames until the
// final report: progress events feed mon and hooks. A broken connection is
// the crash signal of a dead worker process. A worker that delivers a
// failure report is alive — often a casualty of someone else's death (its
// mesh peer vanished) — so it is not blamed; the true suspect surfaces
// through its own broken connection or the deadline.
func collectWorker(rank int, conn net.Conn, mon *monitor, hooks coded.Hooks) (WorkerReport, error) {
	for {
		var frame workerMsg
		if err := readFrame(conn, &frame); err != nil {
			mon.CrashedAtLast(rank)
			return WorkerReport{}, err
		}
		switch {
		case frame.Report != nil:
			msg := frame.Report
			if msg.Err != "" {
				return WorkerReport{}, fmt.Errorf("worker failure: %s", msg.Err)
			}
			if msg.Rank != rank {
				return WorkerReport{}, fmt.Errorf("report rank %d on connection %d", msg.Rank, rank)
			}
			// The worker's heartbeats stop with its report; exempt it from
			// the liveness rule while slower peers finish.
			mon.Done(rank)
			return msg.WorkerReport, nil
		case frame.Progress != nil:
			mon.Alive(rank)
			if st, err := stats.ParseStage(frame.Progress.Stage); err == nil {
				hooks(coded.StageEvent{Rank: rank, Stage: st, Elapsed: frame.Progress.Elapsed})
			}
		default:
			mon.CrashedAtLast(rank)
			return WorkerReport{}, fmt.Errorf("empty control frame")
		}
	}
}

package cluster

import (
	"fmt"
	"net"
	"sync"

	"codedterasort/internal/coded"
	"codedterasort/internal/job"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
)

// Coordinator is the Fig 8 control node: it accepts worker registrations,
// assigns ranks, distributes the job spec and mesh addresses, and collects
// result reports. It never touches record data — the row-addressable
// generator replaces its role of copying input files onto worker disks,
// and workers report partition checksums instead of shipping output back.
type Coordinator struct {
	ln net.Listener
}

// NewCoordinator starts a coordinator listening on addr
// (e.g. "127.0.0.1:0" for a dynamic port).
func NewCoordinator(addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	return &Coordinator{ln: ln}, nil
}

// Addr returns the coordinator's listen address for workers to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops accepting workers.
func (c *Coordinator) Close() error { return c.ln.Close() }

// RunJob blocks until spec.K workers register, runs the job across them,
// and aggregates their reports. Output integrity is verified by multiset
// checksum: the sum of per-partition checksums must equal the input's.
//
// RunJob supervises the run: workers stream per-stage progress, and a
// worker that dies (its connection breaks) is declared faulty; with
// Spec.StageDeadline armed, so is one that stops heartbeating or falls a
// full StageDeadline behind its fastest peer on a stage. The coordinator
// then broadcasts an abort — every surviving worker cancels its attempt
// cleanly instead of blocking forever at the faulty rank's barrier — and
// RunJob fails fast with the suspect named. Re-execution across processes
// is the operator's (or a supervisor script's) job: restart the workers
// and call RunJob again; the in-process Supervise automates that loop. A
// spec asking for more than one attempt is therefore refused before any
// worker is accepted.
func (c *Coordinator) RunJob(spec Spec) (*JobReport, error) {
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return nil, err
	}
	if spec.MaxAttempts > 1 {
		return nil, fmt.Errorf("job: max attempts %d: recovery by re-execution is in-process only; a TCP job runs once", spec.MaxAttempts)
	}
	// Resolve sampled partitioning coordinator-side: the splitters are a
	// pure function of the input (the deterministic stride sample), so the
	// coordinator computes them once and serializes them into the spec it
	// distributes. Workers then partition by the preset bounds without
	// sampling, and the spec on the wire names the exact key-domain split
	// the job ran with.
	if spec.Sampled() && spec.Splitters == nil {
		bounds, err := spec.ExpectedSplitters()
		if err != nil {
			return nil, fmt.Errorf("cluster: computing splitters: %w", err)
		}
		spec.Splitters = bounds
	}
	conns := make([]net.Conn, 0, spec.K)
	defer func() {
		for _, conn := range conns {
			conn.Close()
		}
	}()
	addrs := make([]string, 0, spec.K)
	for len(conns) < spec.K {
		conn, err := c.ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("cluster: accepting worker %d: %w", len(conns), err)
		}
		var reg registerMsg
		if err := readFrame(conn, &reg); err != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: worker %d registration: %w", len(conns), err)
		}
		conns = append(conns, conn)
		addrs = append(addrs, reg.MeshAddr)
	}
	// Assign ranks in registration order and release all workers.
	for rank, conn := range conns {
		if err := writeFrame(conn, assignMsg{Rank: rank, Addrs: addrs, Spec: spec}); err != nil {
			return nil, fmt.Errorf("cluster: assigning rank %d: %w", rank, err)
		}
	}
	// Collect reports concurrently; a worker failure fails the job. Every
	// connection carries workerMsg frames (progress, heartbeats when the
	// deadline is armed, the final report) that feed the detector; a
	// detection aborts all workers and fails fast with the suspects named.
	// A dead worker (broken connection, or silent past the deadline) is
	// always caught; a wedged-but-alive worker is caught once any peer
	// finishes the stage it is stuck in (the peer-relative rule — see the
	// monitor's detection notes for the residual all-ranks-blocked case).
	reports := make([]WorkerReport, spec.K)
	errs := make([]error, spec.K)
	var abortOnce sync.Once
	mon := newMonitor(spec.K, coded.Columns(resolved), spec.StageDeadline, true, 1, func() {
		abortOnce.Do(func() {
			for _, conn := range conns {
				_ = writeFrame(conn, abortMsg{Reason: "fault detected"})
			}
		})
	})
	mon.Watch()
	defer mon.Stop()
	// The workers' progress frames carry the same stage events the
	// in-process supervisor logs from its hooks; a TCP job is one attempt.
	stageLog := trace.NewStageLog(stats.NewWallClock())
	var wg sync.WaitGroup
	for rank, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, reported, err := collectWorker(rank, conn, mon, stageLog)
			if err != nil {
				errs[rank] = err
				// A broken connection is the crash signal of a dead worker
				// process. A worker that delivered a failure report is
				// alive — often a casualty of someone else's death (its
				// mesh peer vanished) — so it must not be blamed; the true
				// suspect surfaces through its own broken connection or
				// the deadline.
				if !reported {
					mon.CrashedAtLast(rank)
				}
				return
			}
			reports[rank] = rep
			// The worker's heartbeats stop with its report; exempt it from
			// the liveness rule while slower peers finish.
			mon.Done(rank)
		}()
	}
	wg.Wait()
	if suspects := mon.Suspects(); len(suspects) > 0 {
		return nil, fmt.Errorf("cluster: job aborted, detected %v", suspects)
	}
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", rank, err)
		}
	}
	return assembleRemote(spec, reports, stageLog.Records())
}

// assembleRemote merges TCP worker reports and verifies multiset
// integrity: partition checksums must sum to the input's. (With
// Spec.InputDir the coordinator scans the same part files the workers read
// — the single-machine deployment this runtime targets.) stages is the
// job's stage log.
func assembleRemote(spec Spec, reports []WorkerReport, stages []trace.StageRecord) (*JobReport, error) {
	p, err := verifyPartitioner(spec) // RunJob preset the splitters: no replay
	if err != nil {
		return nil, err
	}
	if err := checkSplitterAgreement(p, reports); err != nil {
		return nil, err
	}
	in, err := describeInput(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: describing input: %w", err)
	}
	var rows int64
	var sum uint64
	for _, w := range reports {
		rows += w.OutputRows
		sum += w.OutputChecksum
	}
	if rows != in.Rows || sum != in.Checksum {
		return nil, fmt.Errorf("cluster: output mismatch: %d rows (want %d), checksum %#x (want %#x)",
			rows, in.Rows, sum, in.Checksum)
	}
	job := rollup(spec, reports)
	job.Validated = true
	job.Attempts = 1
	job.Stages = stages
	return job, nil
}

// collectWorker consumes one worker connection's workerMsg frames until the
// final report; progress events feed the detector and completed stages the
// stage log. reported says whether the worker delivered its report (alive)
// as opposed to its connection breaking (the crash signal).
func collectWorker(rank int, conn net.Conn, mon *monitor, stageLog *trace.StageLog) (rep WorkerReport, reported bool, err error) {
	for {
		var frame workerMsg
		if err := readFrame(conn, &frame); err != nil {
			return WorkerReport{}, false, err
		}
		switch {
		case frame.Report != nil:
			msg := frame.Report
			if msg.Err != "" {
				return WorkerReport{}, true, fmt.Errorf("worker failure: %s", msg.Err)
			}
			if msg.Rank != rank {
				return WorkerReport{}, true, fmt.Errorf("report rank %d on connection %d", msg.Rank, rank)
			}
			return msg.WorkerReport, true, nil
		case frame.Progress != nil:
			mon.Alive(rank)
			if frame.Progress.Stage != "" {
				if st, err := stats.ParseStage(frame.Progress.Stage); err == nil {
					stageLog.Record(rank, st, frame.Progress.Elapsed, nil)
					mon.StageEnd(rank, st)
				}
			}
		default:
			return WorkerReport{}, false, fmt.Errorf("empty control frame")
		}
	}
}

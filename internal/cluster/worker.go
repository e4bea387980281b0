package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"codedterasort/internal/coded"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport/tcpnet"
	"codedterasort/internal/verify"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// MeshHost is the interface the worker's mesh listener binds
	// (default 127.0.0.1). Workers advertise MeshHost:port to peers.
	MeshHost string
	// Parallelism, when positive, overrides the spec's coordinator-
	// distributed Parallelism on this worker — the knob for heterogeneous
	// machines where one node should use fewer (or more) cores than the
	// job-wide default. Output is byte-identical at any setting, so a
	// per-worker override never perturbs the job's result.
	Parallelism int
	// OnStage, when non-nil, observes each completed stage of this
	// worker's run (stage, measured duration) through the engine runtime's
	// per-stage hooks — live progress for long jobs, since the stage
	// breakdown otherwise only reaches the coordinator at the end.
	OnStage func(stage stats.Stage, elapsed time.Duration)
}

// RunWorker joins one job: it opens a mesh listener, registers with the
// coordinator at coordAddr, waits for a rank assignment, forms the TCP
// mesh with its peers, executes the assigned algorithm on the rank's
// shaped endpoint, checks its partition, and reports the result. It
// returns once the report is delivered (or on failure, after attempting to
// report the error so the coordinator can fail fast). A worker serves one
// attempt of one job: a retry runs on the workers that register next.
func RunWorker(coordAddr string, opts WorkerOptions) error {
	return joinJob(coordAddr, opts, runWorker)
}

// joinJob is RunWorker with the rank's body run by work.
func joinJob(coordAddr string, opts WorkerOptions, work workerFunc) error {
	if opts.Parallelism < 0 {
		return fmt.Errorf("cluster: negative parallelism override %d", opts.Parallelism)
	}
	host := opts.MeshHost
	if host == "" {
		host = "127.0.0.1"
	}
	meshLn, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("cluster: worker mesh listen: %w", err)
	}
	// The listener transfers to the mesh endpoint on success; close it on
	// every earlier exit.
	meshOwned := true
	defer func() {
		if meshOwned {
			meshLn.Close()
		}
	}()

	conn, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("cluster: dial coordinator %s: %w", coordAddr, err)
	}
	defer conn.Close()
	if err := writeFrame(conn, registerMsg{MeshAddr: meshLn.Addr().String()}); err != nil {
		return err
	}
	var assign assignMsg
	if err := readFrame(conn, &assign); err != nil {
		return err
	}
	spec := assign.Spec
	if opts.Parallelism > 0 {
		spec.Parallelism = opts.Parallelism
	}
	tx := &ctrlSender{conn: conn}
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return reportFailure(tx, assign.Rank, err)
	}
	if assign.Rank < 0 || assign.Rank >= len(assign.Addrs) || len(assign.Addrs) != spec.K {
		return reportFailure(tx, assign.Rank, fmt.Errorf("cluster: bad assignment rank=%d addrs=%d k=%d",
			assign.Rank, len(assign.Addrs), spec.K))
	}
	// The coordinator presets a sampled job's splitters, so the checker's
	// partitioner comes straight off the wire — no local sampling.
	p, err := verifyPartitioner(spec)
	if err != nil {
		return reportFailure(tx, assign.Rank, err)
	}
	check := &outputCheck{PartitionChecker: verify.NewPartitionChecker(p, assign.Rank)}
	plan, err := resolved.Strat.Plan(spec.Rows)
	if err != nil {
		return reportFailure(tx, assign.Rank, err)
	}
	source := newFileSource(spec, resolved, plan, kv.Records{}, assign.Rank)

	mesh, err := tcpnet.NewWithListener(assign.Rank, assign.Addrs, meshLn)
	if err != nil {
		return reportFailure(tx, assign.Rank, err)
	}
	meshOwned = false
	defer mesh.Close()
	ep, meter := rankEndpoint(mesh, spec)

	// Per-stage progress frames (and, with the stage deadline armed,
	// periodic heartbeats) flow to the coordinator, and an abort frame (or
	// a vanished coordinator) cancels the run by closing the mesh — a
	// worker never waits forever on a peer the coordinator has declared
	// dead.
	hooks := func(ev coded.StageEvent) {
		if ev.Err != nil {
			return
		}
		if opts.OnStage != nil {
			opts.OnStage(ev.Stage, ev.Elapsed)
		}
		_ = tx.send(workerMsg{Progress: &progressMsg{
			Rank: assign.Rank, Stage: ev.Stage.String(), Elapsed: ev.Elapsed,
		}})
	}
	stopBeat := make(chan struct{})
	defer close(stopBeat)
	go heartbeat(tx, assign.Rank, resolved.Heartbeat, stopBeat)
	ctx, abort := context.WithCancel(context.Background())
	defer abort()
	go listenAbort(conn, mesh, abort)

	// The worker places its files itself, each as its rank's Place or Map
	// reaches it, and describes those it is the lowest-ranked holder of.
	// It streams its sorted blocks through the checker as Reduce emits
	// them, in every mode, so the partition is never materialized. A failed
	// check lets the job finish and is then the worker's failure report;
	// otherwise the report carries the checked digest and the input
	// descriptions, which the coordinator totals against each other.
	local, h := source.hold(ctx, assign.Rank)
	rep, err := work(ep, source.spec, local, check.feed, hooks)
	if err == nil {
		err = check.failed
	}
	if err != nil {
		var killed *coded.KilledError
		if errors.As(err, &killed) {
			// Simulate the process death the fault models: drop the
			// coordinator connection and the mesh without reporting. The
			// coordinator sees the broken connection — the real crash
			// signal — and peers are released by its abort broadcast.
			conn.Close()
			mesh.Close()
			return err
		}
		return reportFailure(tx, assign.Rank, err)
	}
	sum := check.Summary()
	rep.Rank = assign.Rank
	rep.OutputRows, rep.OutputChecksum = sum.Rows, sum.Checksum
	rep.InputFiles = h.described
	rep.WireBytes = meter.Counters().SentBytes
	return tx.send(workerMsg{Report: &reportMsg{WorkerReport: rep}})
}

// listenAbort ends the worker's attempt on any inbound frame from the
// coordinator (an abort) or on losing it, by closing the mesh and
// canceling the attempt. It returns once the coordinator connection
// closes, which RunWorker's return does; both are idempotent, so racing
// the normal teardown is harmless.
func listenAbort(conn net.Conn, mesh io.Closer, abort context.CancelFunc) {
	var ab abortMsg
	_ = readFrame(conn, &ab)
	mesh.Close()
	abort()
}

// ctrlSender serializes control-plane writes: heartbeats, stage progress
// and the final report race on one coordinator connection.
type ctrlSender struct {
	mu   sync.Mutex
	conn net.Conn
}

func (s *ctrlSender) send(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFrame(s.conn, v)
}

// heartbeat sends liveness frames every interval until stopped.
func heartbeat(tx *ctrlSender, rank int, interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if tx.send(workerMsg{Progress: &progressMsg{Rank: rank}}) != nil {
				return
			}
		}
	}
}

// reportFailure best-effort reports err to the coordinator and returns
// err.
func reportFailure(tx *ctrlSender, rank int, err error) error {
	_ = tx.send(workerMsg{Report: &reportMsg{WorkerReport: WorkerReport{Rank: rank}, Err: err.Error()}})
	return err
}

package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"codedterasort/internal/engine"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/netem"
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
// mesh with its peers, executes the assigned algorithm, and reports the
// result. It returns once the report is delivered (or on failure, after
// attempting to report the error so the coordinator can fail fast).
func RunWorker(coordAddr string, opts WorkerOptions) error {
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

	mesh, err := tcpnet.NewWithListener(assign.Rank, assign.Addrs, meshLn)
	if err != nil {
		return reportFailure(tx, assign.Rank, err)
	}
	meshOwned = false
	defer mesh.Close()

	var shaped transport.Conn = mesh
	if spec.RateMbps > 0 || spec.PerMessage > 0 {
		shaped = netem.Limit(mesh, netem.Options{RateMbps: spec.RateMbps, PerMessage: spec.PerMessage})
	}
	meter := transport.NewMeter(shaped)
	ep := transport.WithCollectives(meter, spec.Strategy())

	// Budget-bounded workers never materialize their partition: the sorted
	// blocks stream through a local checker that self-verifies order and
	// membership, and the coordinator cross-checks the reported totals.
	var sink func(kv.Records) error
	if spec.MemBudget > 0 {
		// Under sampled partitioning the coordinator distributes the spec
		// with the splitters preset, so the checker's partitioner comes
		// straight off the wire — no local replay of the sampling round.
		p, err := verifyPartitioner(spec)
		if err != nil {
			return reportFailure(tx, assign.Rank, err)
		}
		sink = verify.NewPartitionChecker(p, assign.Rank).Feed
	}

	// Per-stage progress frames (and, with the stage deadline armed,
	// periodic heartbeats) flow to the coordinator, and an abort frame (or
	// a vanished coordinator) cancels the run by closing the mesh — a
	// worker never waits forever on a peer the coordinator has declared
	// dead.
	hooks := func(ev engine.StageEvent) {
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
	go listenAbort(conn, mesh)

	rep, err := runWorker(ep, spec, sink, hooks)
	if err != nil {
		var killed *engine.KilledError
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
	rep.Rank = assign.Rank
	rep.WireBytes = meter.Counters().SentBytes
	return tx.send(workerMsg{Report: &reportMsg{WorkerReport: rep}})
}

// listenAbort ends the worker's attempt on any inbound frame from the
// coordinator (an abort) or on losing it, by closing the mesh. It returns
// once the coordinator connection closes, which RunWorker's return does;
// the mesh close is idempotent, so racing the normal teardown is harmless.
func listenAbort(conn net.Conn, mesh io.Closer) {
	var ab abortMsg
	_ = readFrame(conn, &ab)
	mesh.Close()
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

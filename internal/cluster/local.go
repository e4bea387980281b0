package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"codedterasort/internal/coded"
	"codedterasort/internal/engine"
	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
	"codedterasort/internal/verify"
)

// WorkerReport is one worker's result summary; its JSON form is the report
// frame a TCP worker sends the coordinator.
type WorkerReport struct {
	Rank int `json:"rank"`
	// Summary is the engine's account of the run: stage times, output
	// digest, shuffle, chunk, spill and merge counters, splitter bounds.
	coded.Summary
	// WireBytes counts bytes that actually crossed the transport,
	// including the per-receiver copies of application-layer multicast
	// and control traffic (tokens, barriers, handshakes).
	WireBytes int64 `json:"wire_bytes"`
	// Output is the sorted partition itself when Spec.KeepOutput is set.
	Output kv.Records `json:"-"`
}

// JobReport aggregates a completed job.
type JobReport struct {
	Spec    Spec
	Workers []WorkerReport
	// Times is the cluster-level breakdown: per-stage maximum over
	// workers, matching how the paper reports synchronized stage times.
	Times stats.Breakdown
	// ShuffleLoadBytes is the total shuffle payload (multicast counted
	// once) — the communication load the theory bounds.
	ShuffleLoadBytes int64
	// ChunksShuffled is the total pipelined chunk count across workers
	// (0 when Spec.ChunkRows is unset).
	ChunksShuffled int64
	// SpilledRuns is the total external-sort runs spilled across workers.
	SpilledRuns int64
	// Spill is the total spill volume across workers, raw vs on disk.
	Spill stats.SpillStats
	// MergeOVCDecided and MergeFullCompares total the workers' out-of-core
	// merge match counters (offset-value-code decisions vs full key
	// compares).
	MergeOVCDecided   int64
	MergeFullCompares int64
	// WireBytes is the total transport-level traffic.
	WireBytes int64
	// SampleRoundBytes totals the sampling round's wire traffic across
	// workers (0 under uniform partitioning or preset splitters).
	SampleRoundBytes int64
	// Validated is set when the job's output passed verification against
	// the input multiset and ordering invariants.
	Validated bool
	// Stages is the cluster-wide stage timeline, recorded through the
	// engine runtime's per-stage hooks: every worker's completed stages in
	// completion order, attempt-tagged across recovery re-executions
	// (in-process runs only).
	Stages []trace.StageRecord
	// Attempts counts the job executions recovery used (1 = ran clean).
	Attempts int
	// Recovered lists the faults detected and recovered from, in detection
	// order (empty when the job ran clean).
	Recovered []Suspect
}

// Total returns the cluster-level total execution time.
func (j JobReport) Total() float64 { return j.Times.Total().Seconds() }

// RunLocal executes the job with all K workers in this process over the
// in-memory transport, optionally traffic-shaped per the spec. Outputs are
// verified against the input (order, partition membership, multiset
// equality) before the report is returned. With MemBudget set (and
// KeepOutput unset, which defeats the point of a budget) the sorted
// partitions are never materialized: each worker streams its output blocks
// into a verify.PartitionChecker, so verification itself runs in O(block)
// memory.
//
// RunLocal is also the supervised deployment: it detects dead and
// straggling workers (crash signals always; peer-relative stage deadlines
// when Spec.StageDeadline is armed) and recovers by attempt-scoped
// re-execution — the attempt is canceled, which unblocks every peer stuck
// at the faulty rank's barrier, and the job re-runs with the faulty rank's
// worker respawned, up to Spec.MaxAttempts. Recovered jobs produce output
// byte-identical to a clean run; the attempt history is reported in
// Attempts/Recovered and the attempt-tagged stage log.
func RunLocal(spec Spec) (*JobReport, error) {
	return RunLocalOpts(context.Background(), spec, Options{})
}

// Options tunes a supervised in-process run beyond what the wire-portable
// Spec carries: live observation and executor placement. The zero value
// reproduces RunLocal exactly.
type Options struct {
	// OnStage, when non-nil, receives every completed stage record as it
	// is logged, across all ranks and recovery attempts — the live feed a
	// serving layer turns into job progress and metrics. It runs on worker
	// goroutines, so it must be cheap and safe for concurrent use.
	OnStage func(trace.StageRecord)
	// spawn runs one rank lifecycle; nil spawns a fresh goroutine per
	// rank per attempt. A Pool lease sets it so rank lifecycles execute on
	// reusable pooled executors instead.
	spawn func(task func())
	// mux, when above 1, multiplexes that many logical ranks onto each
	// spawned executor: rank lifecycles are batched and every batch runs
	// its ranks as goroutines inside one executor task. This is what lets
	// a K=64..128 job run on a pool of a few executors — ranks block on
	// the in-memory transport, not on executor slots, so batching cannot
	// deadlock. Ignored without spawn.
	mux int
}

// startTasks launches every rank lifecycle of an attempt through the
// configured spawner. Without a spawner each task gets its own goroutine;
// with one, tasks are batched mux ranks per executor.
func (o Options) startTasks(tasks []func()) {
	if o.spawn == nil {
		for _, task := range tasks {
			go task()
		}
		return
	}
	batch := o.mux
	if batch < 1 {
		batch = 1
	}
	for lo := 0; lo < len(tasks); lo += batch {
		hi := lo + batch
		if hi > len(tasks) {
			hi = len(tasks)
		}
		group := tasks[lo:hi]
		o.spawn(func() {
			var wg sync.WaitGroup
			for _, task := range group {
				wg.Add(1)
				go func(task func()) {
					defer wg.Done()
					task()
				}(task)
			}
			wg.Wait()
		})
	}
}

// RunLocalOpts is RunLocal with cancellation and run options. Canceling
// ctx checkpoint-cancels the job: the current attempt's mesh is closed,
// which unblocks every rank at its next transport operation exactly like
// fault recovery's attempt cancelation, and the job returns ctx's error
// instead of recovering. Long-lived callers (the sortd service) use it to
// drain without waiting out a slow job.
func RunLocalOpts(ctx context.Context, spec Spec, opts Options) (*JobReport, error) {
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return nil, err
	}
	// One stage log spans all attempts, so the recovery timeline (failed
	// attempts' partial records included) survives into the report.
	stageLog := trace.NewStageLog(stats.NewWallClock())
	if opts.OnStage != nil {
		stageLog.Observe(opts.OnStage)
	}
	// The partitioner the output is verified against is resolved once per
	// job: under sampled partitioning it replays the whole sampling round.
	p, err := verifyPartitioner(spec)
	if err != nil {
		return nil, err
	}
	consumed := map[int]bool{}
	var recovered []Suspect
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: job canceled: %w", err)
		}
		rep, suspects, err := runAttempt(ctx, spec, p, opts, consumed, attempt, stageLog)
		if err == nil {
			rep.Attempts = attempt
			rep.Recovered = recovered
			rep.Stages = stageLog.Records()
			return rep, nil
		}
		if len(suspects) == 0 {
			// A genuine failure, not a detected fault: no recovery.
			return nil, err
		}
		if allFailed(suspects) {
			// A worker exited with its own error (bad input file,
			// unwritable spill dir): the cancel already unblocked its
			// peers, but re-executing a deterministic failure only wastes
			// attempts — surface the error instead of recovering.
			return nil, err
		}
		recovered = append(recovered, suspects...)
		if attempt >= resolved.MaxAttempts {
			return nil, fmt.Errorf("cluster: job failed after %d attempt(s), unrecovered faults %v: %w",
				attempt, suspects, err)
		}
		// Respawn: replacement workers take over the detected ranks, so
		// their injected faults are consumed and do not strike again.
		for _, s := range suspects {
			consumed[s.Rank] = true
		}
		stageLog.NewAttempt()
	}
}

// allFailed reports whether every suspect is a genuine worker error
// rather than a death or straggle — the unrecoverable kind.
func allFailed(suspects []Suspect) bool {
	for _, s := range suspects {
		if s.Reason != "failed" {
			return false
		}
	}
	return true
}

// runAttempt executes one supervised attempt and verifies its output
// against p. On a detected fault it returns the suspects alongside the
// error; an error with no suspects is a genuine (unrecoverable) failure.
func runAttempt(ctx context.Context, spec Spec, p partition.Partitioner, opts Options, consumed map[int]bool, attempt int, stageLog *trace.StageLog) (*JobReport, []Suspect, error) {
	// Replacement workers took over the consumed ranks, so their injected
	// faults do not strike this attempt.
	attemptSpec := spec
	attemptSpec.Faults = spec.FaultsWithout(consumed)
	mesh := memnet.NewMesh(spec.K)
	defer mesh.Close()

	// Cancellation rides the recovery machinery: closing the mesh unblocks
	// every rank at its next transport operation with ErrClosed, the same
	// way a detected fault cancels an attempt.
	stopCancel := context.AfterFunc(ctx, func() { mesh.Close() })
	defer stopCancel()

	// Detection: crash signals from worker goroutines plus the
	// peer-relative stage deadline; cancel closes the mesh, unblocking
	// every rank stuck on the faulty one with ErrClosed.
	mon := newMonitor(spec.K, spec.StageDeadline, false, attempt, func() { mesh.Close() })
	mon.Watch()
	defer mon.Stop()

	streaming := spec.MemBudget > 0 && !spec.KeepOutput
	var checkers []*verify.PartitionChecker
	if streaming {
		// Under sampled partitioning p holds the splitters the round is
		// expected to agree on — computed from the input alone, so a run
		// that drifts from the deterministic sample fails verification.
		checkers = make([]*verify.PartitionChecker, spec.K)
		for r := 0; r < spec.K; r++ {
			checkers[r] = verify.NewPartitionChecker(p, r)
		}
	}

	reports := make([]WorkerReport, spec.K)
	errs := make([]error, spec.K)
	outputs := make([]kv.Records, spec.K)
	var wg sync.WaitGroup
	tasks := make([]func(), spec.K)
	for r := 0; r < spec.K; r++ {
		wg.Add(1)
		rank := r
		tasks[rank] = func() {
			defer wg.Done()
			var conn transport.Conn = mesh.Endpoint(rank)
			if spec.RateMbps > 0 || spec.PerMessage > 0 {
				opts := netem.Options{RateMbps: spec.RateMbps, PerMessage: spec.PerMessage}
				if spec.StragglerFactor > 1 && rank == spec.StragglerRank {
					opts.SlowFactor = spec.StragglerFactor
				}
				conn = netem.Limit(conn, opts)
			}
			meter := transport.NewMeter(conn)
			ep := transport.WithCollectives(meter, spec.Strategy())
			var sink func(kv.Records) error
			if streaming {
				sink = checkers[rank].Feed
			}
			hooks := engine.Hooks{StageEnd: func(ev engine.StageEvent) {
				stageLog.Record(ev.Rank, ev.Stage, ev.Elapsed, ev.Err)
				if ev.Err == nil {
					mon.StageEnd(ev.Rank, ev.Stage)
				}
			}}
			rep, out, err := runWorker(ep, attemptSpec, sink, hooks)
			if err != nil {
				errs[rank] = err
				// Any exited worker strands its peers at a barrier or a
				// pending receive, so every worker error cancels the
				// attempt (the supervisor's crash signal; over TCP it is
				// the worker's broken coordinator connection). A killed
				// rank is recorded as a death; a genuine error as a
				// failure — but first-detection freezing means casualties
				// of the cancellation itself are never blamed.
				var killed *engine.KilledError
				if errors.As(err, &killed) {
					mon.Crashed(killed.Rank, killed.Stage)
				} else {
					mon.Errored(rank)
				}
				return
			}
			rep.Rank = rank
			rep.WireBytes = meter.Counters().SentBytes
			reports[rank] = rep
			outputs[rank] = out
		}
	}
	opts.startTasks(tasks)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A canceled job is not a fault: no suspects, no recovery — the
		// caller asked for the stop.
		return nil, nil, fmt.Errorf("cluster: job canceled: %w", err)
	}
	if suspects := mon.Suspects(); len(suspects) > 0 {
		// Prefer the detected rank's own error over a casualty's ErrClosed.
		werr := errs[suspects[0].Rank]
		if werr == nil {
			for _, e := range errs {
				if e != nil {
					werr = e
					break
				}
			}
		}
		err := fmt.Errorf("cluster: attempt %d canceled, detected %v", attempt, suspects)
		if werr != nil {
			err = fmt.Errorf("cluster: attempt %d canceled, detected %v: %w", attempt, suspects, werr)
		}
		return nil, suspects, err
	}
	for r, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: worker %d: %w", r, err)
		}
	}
	var job *JobReport
	var err error
	if streaming {
		sums := make([]verify.Summary, spec.K)
		for r, c := range checkers {
			sums[r] = c.Summary()
		}
		job, err = assemble(spec, p, reports, nil, sums)
	} else {
		job, err = assemble(spec, p, reports, outputs, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	return job, nil, nil
}

// checkSplitterAgreement verifies every worker of a sampled job reported
// the same splitter bounds, and that they match want, the coordinator's own
// replay of the deterministic sampling round. A mismatch means the round's
// determinism argument was violated (non-deterministic input read, a
// worker partitioned by stale bounds after recovery) and the job's output,
// though locally sorted, would not be globally partitioned as verified.
func checkSplitterAgreement(want [][]byte, reports []WorkerReport) error {
	for _, w := range reports {
		if len(w.SplitterBounds) != len(want) {
			return fmt.Errorf("cluster: worker %d reported %d splitters, expected %d",
				w.Rank, len(w.SplitterBounds), len(want))
		}
		for i, b := range w.SplitterBounds {
			if !bytes.Equal(b, want[i]) {
				return fmt.Errorf("cluster: worker %d splitter %d diverged from the deterministic sample",
					w.Rank, i)
			}
		}
	}
	return nil
}

// inputFiles lists the K part files of a teragen -disk directory.
func inputFiles(dir string, k int) []string {
	files := make([]string, k)
	for i := range files {
		files[i] = extsort.PartFile(dir, i)
	}
	return files
}

// describeInput summarizes the job's input for multiset verification:
// generated data is described by regeneration, file-backed data by a
// streaming scan of the part files — both on every core, in O(block) memory
// per core.
func describeInput(spec Spec) (verify.Input, error) {
	if spec.InputDir == "" {
		return verify.DescribeGenerated(kv.NewGenerator(spec.Seed, spec.Dist()), spec.Rows), nil
	}
	files := inputFiles(spec.InputDir, spec.K)
	parts := make([]verify.Input, len(files))
	if err := parallel.Do(runtime.GOMAXPROCS(0), len(files), func(i int) error {
		return extsort.ScanFile(files[i], 1<<12, func(b kv.Records) error {
			parts[i].Rows += int64(b.Len())
			parts[i].Checksum += b.Checksum()
			return nil
		})
	}); err != nil {
		return verify.Input{}, err
	}
	var in verify.Input
	for _, part := range parts {
		in.Rows += part.Rows
		in.Checksum += part.Checksum
	}
	return in, nil
}

// runWorker executes the spec on one endpoint. A non-nil sink receives the
// sorted partition as ascending blocks instead of it being returned; hooks
// observe each completed stage through the engine runtime.
func runWorker(ep transport.Endpoint, spec Spec, sink func(kv.Records) error, hooks engine.Hooks) (WorkerReport, kv.Records, error) {
	res, err := coded.Run(ep, coded.Config{Spec: spec, OutputSink: sink, Hooks: hooks}, nil)
	if err != nil {
		return WorkerReport{}, kv.Records{}, err
	}
	rep := WorkerReport{Summary: res.Summary}
	if spec.KeepOutput {
		rep.Output = res.Output
	}
	return rep, res.Output, nil
}

// assemble merges worker reports, verifies outputs against p, and builds
// the job report. Exactly one of outputs (materialized partitions) or sums
// (streaming-checker summaries) carries the verification evidence; nil for
// both skips verification (the TCP coordinator's checksum-only path). It
// runs after the last timed stage, when every rank has gone idle, so the
// input description and the K partition checks each use every core.
func assemble(spec Spec, p partition.Partitioner, reports []WorkerReport, outputs []kv.Records, sums []verify.Summary) (*JobReport, error) {
	job := &JobReport{Spec: spec, Workers: reports}
	for _, w := range reports {
		job.Times = job.Times.Max(w.Times)
		job.ShuffleLoadBytes += w.SentBytes
		job.WireBytes += w.WireBytes
		job.ChunksShuffled += w.ChunksSent
		job.SpilledRuns += w.SpilledRuns
		job.Spill.Add(w.Spill)
		job.MergeOVCDecided += w.MergeOVCDecided
		job.MergeFullCompares += w.MergeFullCompares
		job.SampleRoundBytes += w.SampleRoundBytes
	}
	// A sampled job is verified against Splitters; a uniform one has no
	// bounds to agree on.
	if sp, ok := p.(partition.Splitters); ok {
		if err := checkSplitterAgreement(sp.Bounds(), reports); err != nil {
			return nil, err
		}
	}
	if outputs == nil && sums == nil {
		return job, nil
	}
	in, err := describeInput(spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: describing input: %w", err)
	}
	if sums == nil {
		err = verify.SortedOutput(outputs, p, in)
	} else {
		err = verify.CheckSummaries(sums, in)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: output verification failed: %w", err)
	}
	job.Validated = true
	return job, nil
}

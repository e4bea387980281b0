package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"codedterasort/internal/coded"
	"codedterasort/internal/job"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
)

// RankFunc is one rank's body for one supervised attempt: it runs the job's
// worker on ep under spec — the attempt's spec, the respawned ranks' faults
// removed — with hooks observing every stage (they feed the stage log and
// the deadline detector), and returns the rank's report. ctx is the
// attempt's, done once the attempt is canceled (job.Local.Done takes it
// into the engine). Supervise fills in the report's Rank and WireBytes. An
// coded.KilledError return is the rank's death; any other error is a
// failure.
type RankFunc func(ctx context.Context, ep transport.Endpoint, spec Spec, hooks coded.Hooks) (WorkerReport, error)

// launcher runs one supervised attempt — in process (inProcess) or
// over TCP (Coordinator.launch): the K ranks of spec, the attempt's spec,
// each reporting its stages to hooks and its exit to mon, until all have
// returned. Once ctx is done (a detection, or the caller's cancel) it
// aborts them all, unblocking every rank stuck at a peer. It returns each
// rank's report or error; its own error means the attempt never started.
type launcher func(ctx context.Context, spec Spec, mon *monitor, hooks coded.Hooks) ([]WorkerReport, []error, error)

// Supervise runs a job's K ranks in this process over the in-memory
// transport, traffic-shaped per the spec, with rank as every rank's body —
// for the sort (RunLocalOpts) and the MapReduce framework
// (mapreduce.RunLocal); Coordinator.RunJob runs the same attempt loop on
// worker processes. It detects dead and straggling ranks (crash signals
// always; peer-relative stage deadlines when Spec.StageDeadline is armed)
// and recovers by attempt-scoped re-execution: the attempt is canceled,
// which unblocks every peer stuck at the faulty rank's barrier, and the job
// re-runs with the faulty rank's worker respawned, up to Spec.MaxAttempts.
// The report rolls up the successful attempt's worker reports and carries
// the attempt history in Attempts, Recovered and the attempt-tagged stage
// log; verifying the output is the caller's business.
//
// Canceling ctx cancels the current attempt the same way and returns ctx's
// error instead of recovering; long-lived callers (the sortd service) use
// it to drain without waiting out a slow job.
func Supervise(ctx context.Context, spec Spec, opts Options, rank RankFunc) (*JobReport, error) {
	return supervise(ctx, spec, opts.OnStage, inProcess(rank))
}

// supervise is the attempt loop of every job, whichever launcher runs its
// ranks; onStage, when non-nil, observes the stage log.
func supervise(ctx context.Context, spec Spec, onStage func(trace.StageRecord), launch launcher) (*JobReport, error) {
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return nil, err
	}
	// One stage log spans all attempts, so the recovery timeline (failed
	// attempts' partial records included) survives into the report.
	stageLog := trace.NewStageLog(stats.NewWallClock())
	if onStage != nil {
		stageLog.Observe(onStage)
	}
	consumed := map[int]bool{}
	var recovered []Suspect
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: job canceled: %w", err)
		}
		reports, suspects, err := runAttempt(ctx, spec, coded.Columns(resolved), launch, consumed, attempt, stageLog)
		if err == nil {
			rep := rollup(spec, reports)
			rep.Attempts = attempt
			rep.Recovered = recovered
			rep.Stages = stageLog.Records()
			return rep, nil
		}
		if len(suspects) == 0 {
			// A genuine failure, not a detected fault: no recovery. After a
			// detection it may be the respawn that failed (a TCP retry whose
			// workers never re-registered), so the faults stay named.
			if len(recovered) > 0 && ctx.Err() == nil {
				err = fmt.Errorf("cluster: job failed after %d attempt(s), unrecovered faults %v: %w", attempt, recovered, err)
			}
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

// runAttempt executes one supervised attempt through launch and returns its
// per-rank reports; columns is the job's schedule (coded.Columns), by which
// the monitor names a failed rank's stage. On a detected fault it returns
// the suspects alongside the error; an error with no suspects is a genuine
// (unrecoverable) failure.
func runAttempt(ctx context.Context, spec Spec, columns []stats.Stage, launch launcher, consumed map[int]bool, attempt int, stageLog *trace.StageLog) ([]WorkerReport, []Suspect, error) {
	// Replacement workers took over the consumed ranks, so their injected
	// faults do not strike this attempt.
	attemptSpec := spec
	attemptSpec.Faults = spec.FaultsWithout(consumed)

	// Detection: crash signals plus the peer-relative stage deadline. The
	// monitor cancels the attempt's context, on which the launcher aborts
	// every rank, exactly as it does when the caller cancels ctx.
	actx, abort := context.WithCancel(ctx)
	defer abort()
	mon := newMonitor(spec.K, columns, spec.StageDeadline, attempt, abort)
	mon.Watch()
	defer mon.Stop()
	hooks := func(ev coded.StageEvent) {
		stageLog.Record(attempt, ev.Rank, ev.Stage, ev.Elapsed, ev.Err)
		if ev.Err == nil {
			mon.StageEnd(ev.Rank, ev.Stage)
		}
	}
	reports, errs, err := launch(actx, attemptSpec, mon, hooks)
	if err != nil {
		return nil, nil, err
	}
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
	return reports, nil, nil
}

// inProcess is the in-process launcher: rank as every rank's body, each on
// its own goroutine, on a fresh in-memory mesh per attempt.
func inProcess(rank RankFunc) launcher {
	return func(ctx context.Context, spec Spec, mon *monitor, hooks coded.Hooks) ([]WorkerReport, []error, error) {
		mesh := memnet.NewMesh(spec.K)
		defer mesh.Close()
		// Closing the mesh unblocks every rank at its next transport
		// operation with ErrClosed.
		stop := context.AfterFunc(ctx, func() { mesh.Close() })
		defer stop()
		reports := make([]WorkerReport, spec.K)
		errs := make([]error, spec.K)
		var wg sync.WaitGroup
		for r := range spec.K {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ep, meter := rankEndpoint(mesh.Endpoint(r), spec)
				rep, err := rank(ctx, ep, spec, hooks)
				if err != nil {
					errs[r] = err
					// Any exited worker strands its peers at a barrier or a
					// pending receive, so every worker error cancels the
					// attempt (the supervisor's crash signal; over TCP it is
					// the worker's broken coordinator connection). A killed
					// rank is recorded as a death; a genuine error as a
					// failure — but first-detection freezing means casualties
					// of the cancellation itself are never blamed.
					var killed *coded.KilledError
					if errors.As(err, &killed) {
						mon.Crashed(killed.Rank, killed.Stage)
					} else {
						mon.Errored(r)
					}
					return
				}
				rep.Rank = r
				rep.WireBytes = meter.Counters().SentBytes
				reports[r] = rep
			}()
		}
		wg.Wait()
		return reports, errs, nil
	}
}

// rankEndpoint is a rank's view of its transport connection under spec:
// egress shaped to RateMbps and PerMessage — StragglerFactor times slower
// on the straggler rank — metered, with the collectives on top. Every rank
// runs on one, in process and in a TCP worker alike.
func rankEndpoint(conn transport.Conn, spec Spec) (transport.Endpoint, *transport.Meter) {
	if spec.RateMbps > 0 || spec.PerMessage > 0 {
		shape := netem.Options{RateMbps: spec.RateMbps, PerMessage: spec.PerMessage}
		if spec.StragglerFactor > 1 && conn.Rank() == spec.StragglerRank {
			shape.SlowFactor = spec.StragglerFactor
		}
		conn = netem.Limit(conn, shape)
	}
	meter := transport.NewMeter(conn)
	return transport.WithCollectives(meter), meter
}

// rollup builds the job report from the per-rank reports: per-stage maxima
// and job-wide counter totals.
func rollup(spec Spec, reports []WorkerReport) *JobReport {
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
	}
	return job
}

package main

import (
	"fmt"
	"sync"
	"time"

	"codedterasort/internal/stats"
)

// stageNames are the metric-name forms of the paper's six table columns,
// indexed by stats.Stage.
var stageNames = [stats.NumStages]string{"CodeGen", "Map", "PackEncode", "Shuffle", "UnpackDecode", "Reduce"}

// stageRec is one completed (attempt, rank, stage) as the benchmark's
// callback saw it: end is the callback time, start is end - elapsed.
type stageRec struct {
	attempt, rank int
	stage         stats.Stage
	end           time.Time
	elapsed       time.Duration
}

// stageRecorder is the benchmark's own stage callback target. It is
// installed only on traced iterations.
type stageRecorder struct {
	mu   sync.Mutex
	recs []stageRec
}

func (r *stageRecorder) add(attempt, rank int, st stats.Stage, elapsed time.Duration) {
	now := time.Now()
	r.mu.Lock()
	r.recs = append(r.recs, stageRec{attempt: attempt, rank: rank, stage: st, end: now, elapsed: elapsed})
	r.mu.Unlock()
}

// stageTimes is what one traced job says about the engine and cluster
// layers.
type stageTimes struct {
	// PlaceS is call -> first timed stage start: spec validation, worker
	// join, mesh set-up and input placement (generation).
	PlaceS float64
	// VerifyS is last stage end -> return: report assembly and output
	// verification.
	VerifyS float64
	// StageS is the paper's row: per stage, the maximum over ranks.
	StageS [stats.NumStages]float64
	// StageCPU is per stage the sum over ranks.
	StageCPU [stats.NumStages]float64
	// BarrierWaitS is, per rank, the time spent finished with a stage while
	// the slowest rank was still in it, summed over stages; mean over ranks.
	BarrierWaitS float64
}

// emit turns the recorded stages of the job that ran over [t0, t1] into
// spans — a root job span, place, one span per (attempt, rank, stage),
// verify — and into the job's stageTimes.
func (r *stageRecorder) emit(tr *tracer, iter int, t0, t1 time.Time, c counts) *stageTimes {
	r.mu.Lock()
	recs := append([]stageRec(nil), r.recs...)
	r.mu.Unlock()

	job := tr.add(0, iter, "job", "caller", t0, t1, map[string]any{
		"shuffle_bytes": c.ShuffleBytes, "wire_bytes": c.WireBytes, "chunks": c.Chunks,
		"spilled_runs": c.SpilledRuns, "attempts": c.Attempts,
	})
	out := &stageTimes{}
	if len(recs) == 0 {
		tr.add(job, iter, "place", "caller", t0, t1, nil)
		out.PlaceS = t1.Sub(t0).Seconds()
		return out
	}
	first, last := t1, t0
	perRank := map[int][stats.NumStages]time.Duration{}
	// The j-th stage a rank completes is the same scheduled stage on every
	// rank, and a barrier separates it from stage j+1.
	seq := map[int]int{}
	windowEnd := map[int]time.Time{}
	for _, rec := range recs {
		start := rec.end.Add(-rec.elapsed)
		if start.Before(first) {
			first = start
		}
		if rec.end.After(last) {
			last = rec.end
		}
		tr.add(job, iter, stageNames[rec.stage], fmt.Sprintf("rank %d", rec.rank), start, rec.end,
			map[string]any{"attempt": rec.attempt, "rank": rec.rank})
		d := perRank[rec.rank]
		d[rec.stage] += rec.elapsed
		perRank[rec.rank] = d
		j := seq[rec.rank]
		seq[rec.rank]++
		if rec.end.After(windowEnd[j]) {
			windowEnd[j] = rec.end
		}
	}
	tr.add(job, iter, "place", "caller", t0, first, nil)
	tr.add(job, iter, "verify", "caller", last, t1, nil)
	out.PlaceS = first.Sub(t0).Seconds()
	out.VerifyS = t1.Sub(last).Seconds()
	for _, d := range perRank {
		for st, v := range d {
			out.StageS[st] = max(out.StageS[st], v.Seconds())
			out.StageCPU[st] += v.Seconds()
		}
	}
	seq = map[int]int{}
	var wait time.Duration
	for _, rec := range recs {
		wait += windowEnd[seq[rec.rank]].Sub(rec.end)
		seq[rec.rank]++
	}
	out.BarrierWaitS = wait.Seconds() / float64(len(perRank))
	return out
}

// Package model implements the closed-form theory the paper builds on
// (Section II, Coded MapReduce): the computation/communication tradeoff
// L_coded(r) = (1/r)(1 - r/K) versus L_uncoded(r) = 1 - r/K (Eq. 2, Fig 2),
// the execution-time model T_total ≈ r·T_map + T_shuffle/r + T_reduce
// (Eq. 4), the optimal redundancy r* = sqrt(T_shuffle/T_map) and the
// resulting minimum time 2·sqrt(T_shuffle·T_map) + T_reduce (Eq. 5), and
// the straggler penalty at that level. Pricing a whole job stage by stage
// is internal/simnet's.
package model

import (
	"fmt"
	"math"
	"time"
)

// UncodedLoad returns the normalized communication load 1 - r/K of an
// uncoded scheme that maps every file at r nodes: a fraction r/K of each
// reducer's data is already local (Eq. 2's uncoded reference).
func UncodedLoad(k int, r float64) float64 {
	checkKR(k, r)
	return 1 - r/float64(k)
}

// CodedLoad returns the normalized communication load (1/r)(1 - r/K)
// achieved by Coded MapReduce (Eq. 2), which meets the information-
// theoretic lower bound L*(r).
func CodedLoad(k int, r float64) float64 {
	checkKR(k, r)
	return (1 - r/float64(k)) / r
}

// TeraSortLoad returns the load of conventional TeraSort, the uncoded
// r = 1 point: (K-1)/K of all data crosses the network.
func TeraSortLoad(k int) float64 { return UncodedLoad(k, 1) }

func checkKR(k int, r float64) {
	if k <= 0 {
		panic(fmt.Sprintf("model: K=%d", k))
	}
	if r < 1 || r > float64(k) {
		panic(fmt.Sprintf("model: r=%g outside [1,%d]", r, k))
	}
}

// LoadPoint is one point of the Fig 2 curve.
type LoadPoint struct {
	R       float64
	Uncoded float64
	Coded   float64
}

// LoadCurve returns the Fig 2 data for integer r = 1..K.
func LoadCurve(k int) []LoadPoint {
	out := make([]LoadPoint, 0, k)
	for r := 1; r <= k; r++ {
		out = append(out, LoadPoint{
			R:       float64(r),
			Uncoded: UncodedLoad(k, float64(r)),
			Coded:   CodedLoad(k, float64(r)),
		})
	}
	return out
}

// ShuffledBytes returns the total bytes crossing the network to shuffle an
// input of dataBytes under the given scheme: dataBytes × load. The paper
// normalizes load by QN intermediate values; with one intermediate value
// per (partition, file) pair and sorting moving the whole input, the
// denormalized total is simply load × input size.
func ShuffledBytes(dataBytes int64, k int, r float64, coded bool) int64 {
	load := UncodedLoad(k, r)
	if coded {
		load = CodedLoad(k, r)
	}
	return int64(float64(dataBytes) * load)
}

// TimeModel captures the baseline (r = 1) stage times of a MapReduce job,
// the inputs to Eq. 3-5.
type TimeModel struct {
	TMap     time.Duration // Map time at r = 1
	TShuffle time.Duration // Shuffle time at r = 1
	TReduce  time.Duration // Reduce time
}

// Baseline returns T_total,MR = T_map + T_shuffle + T_reduce (Eq. 3).
func (m TimeModel) Baseline() time.Duration {
	return m.TMap + m.TShuffle + m.TReduce
}

// Total returns the Eq. 4 estimate T ≈ r·T_map + T_shuffle/r + T_reduce.
func (m TimeModel) Total(r float64) time.Duration {
	if r < 1 {
		panic(fmt.Sprintf("model: r=%g", r))
	}
	return time.Duration(r*float64(m.TMap) + float64(m.TShuffle)/r + float64(m.TReduce))
}

// TotalExact refines Eq. 4 with the finite-K load factor: the coded
// shuffle moves (1/r)(1-r/K) of the data versus the baseline's (K-1)/K,
// so shuffle time scales by their ratio rather than exactly 1/r.
func (m TimeModel) TotalExact(k int, r float64) time.Duration {
	shuffle := float64(m.TShuffle) * CodedLoad(k, r) / TeraSortLoad(k)
	return time.Duration(r*float64(m.TMap) + shuffle + float64(m.TReduce))
}

// RStar returns the optimal integer redundancy per the paper:
// floor or ceil of sqrt(T_shuffle/T_map), whichever gives the smaller
// Eq. 4 total (the paper's r* definition below Eq. 4).
func (m TimeModel) RStar() int {
	if m.TMap <= 0 {
		panic("model: RStar needs positive TMap")
	}
	x := math.Sqrt(float64(m.TShuffle) / float64(m.TMap))
	lo := math.Max(1, math.Floor(x))
	hi := math.Ceil(x)
	if hi < 1 {
		hi = 1
	}
	if m.Total(lo) <= m.Total(hi) {
		return int(lo)
	}
	return int(hi)
}

// OptimalTotal returns Eq. 5: 2·sqrt(T_shuffle·T_map) + T_reduce, the
// continuous-r minimum of Eq. 4.
func (m TimeModel) OptimalTotal() time.Duration {
	return time.Duration(2*math.Sqrt(float64(m.TShuffle)*float64(m.TMap))) + m.TReduce
}

// Speedup returns Baseline()/Total(r), the predicted end-to-end gain of
// running with redundancy r.
func (m TimeModel) Speedup(r float64) float64 {
	return float64(m.Baseline()) / float64(m.Total(r))
}

// OptimalSpeedup returns Baseline()/OptimalTotal(), the paper's
// "approximately 10x" estimate for Table I's numbers at r = r*.
func (m TimeModel) OptimalSpeedup() float64 {
	return float64(m.Baseline()) / float64(m.OptimalTotal())
}

// StragglerDelta returns the Eq. 4-level completion-time penalty of one
// straggling rank whose shuffle egress runs at 1/f speed. Under the serial
// one-sender-at-a-time schedule every rank transmits for 1/K of the
// shuffle, so the cluster waits an extra (f-1)·T_shuffle(r)/K — with
// T_shuffle(r) = T_shuffle/r, the straggler penalty shrinks by the same
// factor r as the load itself: coding converts its redundancy into
// straggler resilience, the flagship application of the coded-computing
// literature the paper cites ([11]).
func (m TimeModel) StragglerDelta(r float64, k int, f float64) time.Duration {
	checkKR(k, r)
	if f <= 1 {
		return 0
	}
	return time.Duration((f - 1) * float64(m.TShuffle) / r / float64(k))
}

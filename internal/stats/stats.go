// Package stats provides the measurement substrate: a Clock abstraction the
// stage scheduler times against, the per-stage Breakdown it charges, and
// rendering of the paper's result tables
// (Tables I, II and III all share the column layout
// CodeGen | Map | Pack/Encode | Shuffle | Unpack/Decode | Reduce | Total).
package stats

import (
	"fmt"
	"time"
)

// Clock reports elapsed time since an arbitrary epoch. WallClock is the
// real-time implementation; tests inject their own.
type Clock interface {
	Now() time.Duration
}

// WallClock measures real elapsed time from its creation.
type WallClock struct {
	epoch time.Time
}

// NewWallClock returns a wall clock with epoch now.
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now()} }

// Now implements Clock.
func (w *WallClock) Now() time.Duration { return time.Since(w.epoch) }

// Stage identifies one phase of either sorting algorithm. TeraSort uses
// Map/Pack/Shuffle/Unpack/Reduce; CodedTeraSort uses CodeGen/Map/Encode/
// MulticastShuffle/Decode/Reduce. The paper's tables align Pack with Encode
// and Unpack with Decode, so both algorithms share the same axis here.
type Stage int

// The canonical stage axis, in execution order.
const (
	StageCodeGen Stage = iota
	StageMap
	StagePack // Encode for CodedTeraSort
	StageShuffle
	StageUnpack // Decode for CodedTeraSort
	StageReduce
	NumStages
)

// String returns the table-column name of the stage.
func (s Stage) String() string {
	switch s {
	case StageCodeGen:
		return "CodeGen"
	case StageMap:
		return "Map"
	case StagePack:
		return "Pack/Encode"
	case StageShuffle:
		return "Shuffle"
	case StageUnpack:
		return "Unpack/Decode"
	case StageReduce:
		return "Reduce"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// ParseStage parses a stage name back to its axis position. It accepts the
// table-column names String renders plus the per-engine aliases the paper
// uses ("Pack" or "Encode" for the coding column, "Unpack" or "Decode" for
// its inverse) — the form job specs and CLI flags name fault stages in.
func ParseStage(name string) (Stage, error) {
	switch name {
	case "CodeGen":
		return StageCodeGen, nil
	case "Map":
		return StageMap, nil
	case "Pack", "Encode", "Pack/Encode":
		return StagePack, nil
	case "Shuffle":
		return StageShuffle, nil
	case "Unpack", "Decode", "Unpack/Decode":
		return StageUnpack, nil
	case "Reduce", "Sort":
		return StageReduce, nil
	default:
		return 0, fmt.Errorf("stats: unknown stage %q", name)
	}
}

// SpillStats accounts external-sort spill volume — sorted runs and shuffle
// spools alike — as the raw record bytes handed to spill writers versus the
// framed bytes that actually landed on disk. The two differ when the
// compact prefix-truncated block format (extsort's v2 "CTS4" frames) wins:
// the gap is the spill-I/O saving. Workers accumulate it per job; the
// cluster and the serving layer sum it into JobReport and /metrics.
type SpillStats struct {
	RawBytes  int64 `json:"raw_bytes"`
	DiskBytes int64 `json:"disk_bytes"`
}

// Add accumulates o into s.
func (s *SpillStats) Add(o SpillStats) {
	s.RawBytes += o.RawBytes
	s.DiskBytes += o.DiskBytes
}

// Breakdown holds one duration per stage.
type Breakdown [NumStages]time.Duration

// Total returns the sum over all stages.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Max returns the element-wise maximum of two breakdowns. Because stages
// are separated by barriers (the paper executes stages synchronously,
// Section VI), the cluster-level stage time is the maximum over nodes.
func (b Breakdown) Max(o Breakdown) Breakdown {
	out := b
	for i, d := range o {
		if d > out[i] {
			out[i] = d
		}
	}
	return out
}

// Add returns the element-wise sum (used for averaging repeated runs).
func (b Breakdown) Add(o Breakdown) Breakdown {
	out := b
	for i, d := range o {
		out[i] += d
	}
	return out
}

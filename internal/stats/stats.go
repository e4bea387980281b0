// Package stats provides the measurement substrate: a Clock abstraction so
// the same stage drivers run under wall-clock time (real transports) or
// virtual time (the simnet used to regenerate the EC2-scale tables),
// per-stage timelines, and rendering of the paper's result tables
// (Tables I, II and III all share the column layout
// CodeGen | Map | Pack/Encode | Shuffle | Unpack/Decode | Reduce | Total).
package stats

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// Clock reports elapsed time since an arbitrary epoch. Implementations:
// WallClock (real time) and VirtualClock (simulated time advanced by the
// simnet cost model).
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

// VirtualClock is a manually advanced clock. It is safe for concurrent use.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Duration
}

// Now implements Clock.
func (v *VirtualClock) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d and returns the new time.
// Negative advances panic: simulated time is monotone.
func (v *VirtualClock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic("stats: negative clock advance")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now += d
	return v.now
}

// AdvanceTo moves the clock to t if t is later than the current time and
// returns the (possibly unchanged) clock value.
func (v *VirtualClock) AdvanceTo(t time.Duration) time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t > v.now {
		v.now = t
	}
	return v.now
}

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

// Scale returns the breakdown with every stage multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	var out Breakdown
	for i, d := range b {
		out[i] = time.Duration(float64(d) * f)
	}
	return out
}

// MarshalBinary encodes the breakdown as NumStages big-endian int64
// nanosecond values, the wire format workers use to report to the
// coordinator.
func (b Breakdown) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8*NumStages)
	for i, d := range b {
		binary.BigEndian.PutUint64(out[8*i:], uint64(d.Nanoseconds()))
	}
	return out, nil
}

// UnmarshalBinary decodes the MarshalBinary format.
func (b *Breakdown) UnmarshalBinary(p []byte) error {
	if len(p) != 8*int(NumStages) {
		return fmt.Errorf("stats: breakdown payload of %d bytes, want %d", len(p), 8*NumStages)
	}
	for i := range b {
		b[i] = time.Duration(binary.BigEndian.Uint64(p[8*i:]))
	}
	return nil
}

// Timeline accumulates per-stage durations against a Clock. It is used by
// one node for one run; merge node timelines with Breakdown.Max.
type Timeline struct {
	clock Clock
	mu    sync.Mutex
	b     Breakdown
}

// NewTimeline returns an empty timeline over the clock.
func NewTimeline(clock Clock) *Timeline { return &Timeline{clock: clock} }

// Clock returns the clock the timeline measures against, so external stage
// drivers (the engine runtime's per-stage hooks) time against the same
// wall or virtual time the timeline is charged in.
func (t *Timeline) Clock() Clock { return t.clock }

// Measure runs fn and charges its elapsed clock time to stage.
func (t *Timeline) Measure(stage Stage, fn func() error) error {
	start := t.clock.Now()
	err := fn()
	t.AddDuration(stage, t.clock.Now()-start)
	return err
}

// AddDuration charges d to stage directly (used when the duration comes
// from the simulator's cost model rather than from timing a closure).
func (t *Timeline) AddDuration(stage Stage, d time.Duration) {
	if stage < 0 || stage >= NumStages {
		panic(fmt.Sprintf("stats: invalid stage %d", stage))
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.b[stage] += d
	t.mu.Unlock()
}

// Breakdown returns a snapshot of the accumulated durations.
func (t *Timeline) Breakdown() Breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.b
}

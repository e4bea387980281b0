package engine

import (
	"fmt"

	"codedterasort/internal/job"
)

// Mode is the execution mode the scheduler derives from the job spec: how
// the stage graph trades memory for overlap.
type Mode int

const (
	// ModeMono is the paper's monolithic stage-by-stage schedule: every
	// stage materializes its whole output before the next begins.
	ModeMono Mode = iota
	// ModeChunked is the streaming pipelined shuffle (the Section VII
	// "Asynchronous Execution" direction): Pack/Encode, Shuffle and
	// Unpack/Decode overlap chunk by chunk.
	ModeChunked
	// ModeSpill is the out-of-core mode: chunked streaming plus
	// budget-bounded spilling of sorted runs to disk and a streaming merge
	// Reduce.
	ModeSpill
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeMono:
		return "monolithic"
	case ModeChunked:
		return "chunked"
	case ModeSpill:
		return "spill"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeSet is a set of modes a stage participates in.
type ModeSet uint8

// In builds the set of the given modes.
func In(modes ...Mode) ModeSet {
	var s ModeSet
	for _, m := range modes {
		s |= 1 << m
	}
	return s
}

// Has reports membership.
func (s ModeSet) Has(m Mode) bool { return s&(1<<m) != 0 }

// The common stage mode sets.
var (
	// AllModes marks a stage present in every schedule.
	AllModes = In(ModeMono, ModeChunked, ModeSpill)
	// InMemory marks a stage of the fully in-memory schedules.
	InMemory = In(ModeMono, ModeChunked)
	// Streaming marks a stage of the chunk-streaming schedules.
	Streaming = In(ModeChunked, ModeSpill)
)

// ModeOf derives the execution mode of a resolved job: MemBudget forces
// out-of-core, ChunkRows alone selects the streaming pipeline, otherwise the
// monolithic schedule.
func ModeOf(spec *job.Resolved) Mode {
	switch {
	case spec.MemBudget > 0:
		return ModeSpill
	case spec.ChunkRows > 0:
		return ModeChunked
	default:
		return ModeMono
	}
}

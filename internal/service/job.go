package service

import (
	"time"

	"codedterasort/internal/cluster"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued is admitted but not yet dispatched.
	StateQueued State = "queued"
	// StateRunning holds its rank slots and is executing.
	StateRunning State = "running"
	// StateDone completed and verified.
	StateDone State = "done"
	// StateFailed returned an error.
	StateFailed State = "failed"
	// StateCanceled was stopped by drain or shutdown before completing.
	StateCanceled State = "canceled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// job is the server's internal record of one submission. Mutable fields
// are guarded by the server's mutex; done closes on reaching a terminal
// state.
type job struct {
	id       string
	tenant   string
	priority int
	seq      int64
	spec     cluster.Spec

	state      State
	submitted  time.Time
	started    time.Time
	finished   time.Time
	spillDir   string
	stagesDone int
	lastStage  string
	attempts   int
	report     *cluster.JobReport
	errText    string
	done       chan struct{}
}

// PartitionSummary is one output partition's identity: enough to compare
// a service job byte-for-byte against an oracle run without shipping the
// data.
type PartitionSummary struct {
	Rank     int    `json:"rank"`
	Rows     int64  `json:"rows"`
	Checksum uint64 `json:"checksum"`
}

// JobStatus is the wire form of a job's state — what GET /v1/jobs/{id}
// returns and sortctl renders.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Spec echoes the submitted job description (with the server-assigned
	// spill namespace, when one was applied).
	Spec        cluster.Spec `json:"spec"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   time.Time    `json:"started_at,omitzero"`
	FinishedAt  time.Time    `json:"finished_at,omitzero"`
	// StagesDone counts completed (rank, stage) executions across
	// attempts; LastStage names the most recent one — the live progress a
	// poller sees while the job runs.
	StagesDone int    `json:"stages_done"`
	LastStage  string `json:"last_stage,omitempty"`
	// Attempts and Recovered surface the supervisor's recovery history.
	Attempts  int      `json:"attempts,omitempty"`
	Recovered []string `json:"recovered,omitempty"`
	// Validated is true once the output passed multiset/order/partition
	// verification; Partitions identifies each sorted partition.
	Validated  bool               `json:"validated"`
	OutputRows int64              `json:"output_rows,omitempty"`
	Partitions []PartitionSummary `json:"partitions,omitempty"`
	// The job's transfer accounting, from the cluster report.
	ShuffleLoadBytes int64 `json:"shuffle_load_bytes,omitempty"`
	WireBytes        int64 `json:"wire_bytes,omitempty"`
	SpilledRuns      int64 `json:"spilled_runs,omitempty"`
	// Raw vs on-disk (framed) spilled bytes. The merge counters split comparisons between offset-value
	// code decisions and full key compares on code ties.
	SpilledRawBytes   int64 `json:"spilled_raw_bytes,omitempty"`
	SpilledDiskBytes  int64 `json:"spilled_disk_bytes,omitempty"`
	MergeOVCDecided   int64 `json:"merge_ovc_decided,omitempty"`
	MergeFullCompares int64 `json:"merge_full_compares,omitempty"`
	// TotalSeconds is the cluster-level stage-time total.
	TotalSeconds float64 `json:"total_seconds,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// status snapshots the job under the server lock.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		Spec:        j.spec,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		StagesDone:  j.stagesDone,
		LastStage:   j.lastStage,
		Attempts:    j.attempts,
		Error:       j.errText,
	}
	if rep := j.report; rep != nil {
		st.Validated = rep.Validated
		st.Attempts = rep.Attempts
		st.ShuffleLoadBytes = rep.ShuffleLoadBytes
		st.WireBytes = rep.WireBytes
		st.SpilledRuns = rep.SpilledRuns
		st.SpilledRawBytes = rep.Spill.RawBytes
		st.SpilledDiskBytes = rep.Spill.DiskBytes
		st.MergeOVCDecided = rep.MergeOVCDecided
		st.MergeFullCompares = rep.MergeFullCompares
		st.TotalSeconds = rep.Total()
		for _, s := range rep.Recovered {
			st.Recovered = append(st.Recovered, s.String())
		}
		for _, w := range rep.Workers {
			st.OutputRows += w.OutputRows
			st.Partitions = append(st.Partitions, PartitionSummary{
				Rank: w.Rank, Rows: w.OutputRows, Checksum: w.OutputChecksum,
			})
		}
	}
	return st
}

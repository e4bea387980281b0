// Package mrtest is the kernel-generic equivalence harness of the
// MapReduce framework: given any Kernel, Check asserts that every
// distributed execution of it — uncoded and coded engines, monolithic,
// chunked-streaming and out-of-core modes, serial and parallel compute,
// and fault-injected recovered runs — produces reduced output
// byte-identical, rank for rank, to the single-goroutine Sequential
// oracle. Registering a kernel is all a new computation needs to be gated
// by the same contract; the harness has no per-kernel knowledge.
package mrtest

import (
	"bytes"
	"fmt"
	"testing"

	"codedterasort/internal/cluster"
	jobspec "codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/mapreduce"
	"codedterasort/internal/stats"
)

// Config sizes a kernel check. The zero value selects the standard grid:
// K=4 workers, replication R=2, 2000 input rows, seed 7, Parallelism
// sweep {1, 4}.
type Config struct {
	K, R  int
	Rows  int64
	Seed  uint64
	Procs []int
}

// withDefaults fills zero fields with the standard grid.
func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 4
	}
	if c.R == 0 {
		c.R = 2
	}
	if c.Rows == 0 {
		c.Rows = 2000
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 4}
	}
	return c
}

// Oracle computes the kernel's sequential reference output for the config.
func Oracle(tb testing.TB, kern mapreduce.Kernel, cfg Config) []kv.Records {
	tb.Helper()
	cfg = cfg.withDefaults()
	want, err := mapreduce.Sequential(kern.Job(cfg.K, 1, cfg.Rows, cfg.Seed))
	if err != nil {
		tb.Fatalf("Sequential: %v", err)
	}
	return want
}

// Equal asserts that the report's per-rank reduced output is byte-identical
// to want.
func Equal(tb testing.TB, want []kv.Records, rep *cluster.JobReport) {
	tb.Helper()
	if len(rep.Workers) != len(want) {
		tb.Fatalf("got %d ranks, want %d", len(rep.Workers), len(want))
	}
	for rank := range want {
		got := rep.Workers[rank].Output
		if got.Len() != want[rank].Len() {
			tb.Fatalf("rank %d: %d output rows, want %d", rank, got.Len(), want[rank].Len())
		}
		if !bytes.Equal(got.Bytes(), want[rank].Bytes()) {
			i := firstDiff(got, want[rank])
			tb.Fatalf("rank %d: output diverges at row %d:\n got  %q\n want %q",
				rank, i, got.Record(i), want[rank].Record(i))
		}
	}
}

// firstDiff locates the first differing row of two equal-length outputs.
func firstDiff(a, b kv.Records) int {
	for i := 0; i < a.Len(); i++ {
		if !bytes.Equal(a.Record(i), b.Record(i)) {
			return i
		}
	}
	return 0
}

// mode is one engine execution mode of the grid.
type mode struct {
	name string
	set  func(tb testing.TB, j *mapreduce.Job)
}

// modes returns the execution-mode axis: monolithic, chunked streaming,
// out-of-core external sort.
func modes() []mode {
	return []mode{
		{"mono", func(tb testing.TB, j *mapreduce.Job) {}},
		{"chunked", func(tb testing.TB, j *mapreduce.Job) {
			j.ChunkRows, j.Window = 192, 2
		}},
		{"extsort", func(tb testing.TB, j *mapreduce.Job) {
			j.MemBudget, j.SpillDir = 32<<10, tb.TempDir()
		}},
	}
}

// Check runs the standard equivalence grid over the kernel. See
// CheckConfig.
func Check(t *testing.T, kern mapreduce.Kernel) {
	CheckConfig(t, kern, Config{})
}

// CheckConfig runs the equivalence grid over the kernel with the given
// sizes: every (engine, mode, parallelism) cell plus kill-at-stage
// recovery runs must reproduce the Sequential oracle byte for byte.
func CheckConfig(t *testing.T, kern mapreduce.Kernel, cfg Config) {
	cfg = cfg.withDefaults()
	want := Oracle(t, kern, cfg)
	for _, r := range []int{1, cfg.R} {
		eng := "uncoded"
		if r >= 2 {
			eng = "coded"
		}
		for _, m := range modes() {
			for _, procs := range cfg.Procs {
				m := m
				r, procs := r, procs
				t.Run(fmt.Sprintf("%s/%s/procs=%d", eng, m.name, procs), func(t *testing.T) {
					t.Parallel()
					job := kern.Job(cfg.K, r, cfg.Rows, cfg.Seed)
					m.set(t, &job)
					job.Parallelism = procs
					rep, err := mapreduce.RunLocal(job)
					if err != nil {
						t.Fatalf("RunLocal: %v", err)
					}
					Equal(t, want, rep)
				})
			}
		}
	}
	CheckRecovery(t, kern, cfg)
}

// CheckRecovery kills one rank at each timed stage of a coded run and
// asserts the recovered job still reproduces the oracle byte for byte.
func CheckRecovery(t *testing.T, kern mapreduce.Kernel, cfg Config) {
	cfg = cfg.withDefaults()
	want := Oracle(t, kern, cfg)
	for _, stage := range []stats.Stage{stats.StageMap, stats.StageShuffle, stats.StageReduce} {
		stage := stage
		t.Run(fmt.Sprintf("recover/kill@%s", stage), func(t *testing.T) {
			t.Parallel()
			job := kern.Job(cfg.K, cfg.R, cfg.Rows, cfg.Seed)
			job.Faults = []jobspec.FaultSpec{{Rank: 1, Stage: stage.String(), Kind: jobspec.FaultKill}}
			job.MaxAttempts = 2
			rep, err := mapreduce.RunLocal(job)
			if err != nil {
				t.Fatalf("RunLocal with kill at %s: %v", stage, err)
			}
			if rep.Attempts != 2 {
				t.Fatalf("Attempts = %d, want 2", rep.Attempts)
			}
			if len(rep.Recovered) != 1 || rep.Recovered[0].Rank != 1 {
				t.Fatalf("Recovered = %v, want [1]", rep.Recovered)
			}
			Equal(t, want, rep)
		})
	}
}

package cluster

import (
	"strings"
	"testing"

	"codedterasort/internal/coded"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/transport"
	"codedterasort/internal/verify"
)

// TestDescribedInputRefuses: the input a job is verified against is the
// total of the descriptions its ranks report, one per file. Reports that
// leave a file undescribed, describe one twice, name a file the plan does
// not have, or describe a generated file as other than the plan's rows are
// refused; an InputDir part file's rows are whatever its holder read.
func TestDescribedInputRefuses(t *testing.T) {
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 3000, Seed: 83}
	plan, err := placement.Redundant(spec.K, spec.R, spec.Rows)
	if err != nil {
		t.Fatal(err)
	}
	g := kv.NewGenerator(spec.Seed, kv.DistUniform)
	// clean reports every file once, from its lowest-ranked holder.
	clean := func() []WorkerReport {
		reports := make([]WorkerReport, spec.K)
		for i := range plan.NumFiles() {
			first, last := plan.FileRows(i)
			r := plan.Files[i].Min()
			reports[r].Rank = r
			reports[r].InputFiles = append(reports[r].InputFiles, FileInput{File: i, Input: verify.Describe(g.Generate(first, last-first))})
		}
		return reports
	}
	in, err := describedInput(plan, true, clean())
	if err != nil {
		t.Fatalf("clean reports refused: %v", err)
	}
	if want := verify.DescribeGenerated(g, spec.Rows); in != want {
		t.Fatalf("clean reports total %+v, the input is %+v", in, want)
	}
	for _, c := range []struct {
		name   string
		tamper func([]WorkerReport) []WorkerReport
		want   string
	}{
		{"undescribed file", func(r []WorkerReport) []WorkerReport {
			r[0].InputFiles = r[0].InputFiles[1:]
			return r
		}, "no rank described the rows of input file 0"},
		{"file described twice", func(r []WorkerReport) []WorkerReport {
			r[3].InputFiles = append(r[3].InputFiles, r[1].InputFiles[0])
			return r
		}, "described twice"},
		{"file the plan lacks", func(r []WorkerReport) []WorkerReport {
			r[2].InputFiles = append(r[2].InputFiles, FileInput{File: plan.NumFiles()})
			return r
		}, "described input file 6, the plan has 6"},
		{"short file", func(r []WorkerReport) []WorkerReport {
			r[1].InputFiles[0].Rows--
			return r
		}, "rows, it has"},
		{"long file", func(r []WorkerReport) []WorkerReport {
			r[0].InputFiles[0].Rows++
			return r
		}, "rows, it has"},
	} {
		if _, err := describedInput(plan, true, c.tamper(clean())); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want %q", c.name, err, c.want)
		}
	}

	disk, err := placement.Redundant(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	read := []WorkerReport{
		{Rank: 0, InputFiles: []FileInput{{File: 0, Input: verify.Input{Rows: 7, Checksum: 1}}}},
		{Rank: 1, InputFiles: []FileInput{{File: 1, Input: verify.Input{Rows: 5, Checksum: 2}}}},
	}
	if in, err := describedInput(disk, false, read); err != nil || in != (verify.Input{Rows: 12, Checksum: 3}) {
		t.Fatalf("InputDir reports: %+v, %v", in, err)
	}
	if _, err := describedInput(disk, false, read[:1]); err == nil || !strings.Contains(err.Error(), "input file 1") {
		t.Fatalf("InputDir job with an undescribed part file: %v", err)
	}
}

// TestTCPRetryDescribesEachFileOnce: over TCP a rank dies at Shuffle, after
// every rank of the first attempt has placed — and described — its files.
// The retry's workers place and describe them again, and the recovered
// job's reports describe every file exactly once, each by its
// lowest-ranked holder, in memory and out of core.
func TestTCPRetryDescribesEachFileOnce(t *testing.T) {
	inMemory := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 3000, Seed: 85, MaxAttempts: 2,
		Faults: []FaultSpec{{Rank: 0, Stage: "Shuffle", Kind: job.FaultKill}}}
	outOfCore := inMemory
	outOfCore.MemBudget, outOfCore.SpillDir = 16<<10, t.TempDir()
	for _, spec := range []Spec{inMemory, outOfCore} {
		rep, err := rejoinTCP(t, spec, runWorker, WorkerOptions{})
		if err != nil {
			t.Fatalf("budget %d: %v", spec.MemBudget, err)
		}
		if !rep.Validated || rep.Attempts != 2 {
			t.Fatalf("budget %d: validated=%v after %d attempts", spec.MemBudget, rep.Validated, rep.Attempts)
		}
		plan, err := placement.Redundant(spec.K, spec.R, spec.Rows)
		if err != nil {
			t.Fatal(err)
		}
		described := make([]int, plan.NumFiles())
		for _, w := range rep.Workers {
			for _, f := range w.InputFiles {
				described[f.File]++
				if holder := plan.Files[f.File].Min(); holder != w.Rank {
					t.Fatalf("budget %d: rank %d described file %d, whose lowest-ranked holder is %d",
						spec.MemBudget, w.Rank, f.File, holder)
				}
			}
		}
		for i, n := range described {
			if n != 1 {
				t.Fatalf("budget %d: file %d described %d times by the recovered job", spec.MemBudget, i, n)
			}
		}
	}
}

// TestTCPDivergentReplicaFails: over TCP each file is described by its
// lowest-ranked holder alone, so the coordinator no longer checks the
// other holders' copies against the spec. A copy that diverges in bytes
// that reach the output still fails the job: rank 1 is not file {0, 1}'s
// describer, and a value byte flipped in a record of its own partition
// reaches its output and fails the multiset check.
func TestTCPDivergentReplicaFails(t *testing.T) {
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 87}
	plan, err := placement.Redundant(spec.K, spec.R, spec.Rows)
	if err != nil {
		t.Fatal(err)
	}
	part := partition.NewUniform(spec.K)
	work := func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error) {
		if load := local.Load; ep.Rank() == 1 {
			local.Load = func(i int) (kv.Records, error) {
				f, err := load(i)
				for r := 0; err == nil && plan.Files[i].Min() != 1 && r < f.Len(); r++ {
					if part.Partition(f.Key(r)) == 1 {
						f.Value(r)[5] ^= 0x40
						break
					}
				}
				return f, err
			}
		}
		return runWorker(ep, spec, local, sink, hooks)
	}
	if _, err := rejoinTCP(t, spec, runWorker, WorkerOptions{}); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	_, err = rejoinTCP(t, spec, work, WorkerOptions{})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("divergent replica: err %v, want a checksum mismatch", err)
	}
}

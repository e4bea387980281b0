package job_test

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"codedterasort/internal/cluster"
	codedpkg "codedterasort/internal/coded"
	"codedterasort/internal/kv"
	"codedterasort/internal/mapreduce"
	"codedterasort/internal/service"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// TestEveryEntryPointRejects feeds every row of the validation table to
// every way into the system — the in-process cluster runtime, the TCP
// coordinator, the engine, the MapReduce framework and the sortd service —
// and asserts each refuses it up front with the one validator's message:
// no panic, no job queued, no goroutine and no spill directory left
// behind. A worker gets the same check through the coordinator, which
// refuses the spec before it distributes it (and RunWorker resolves what it
// is assigned before it opens its mesh).
func TestEveryEntryPointRejects(t *testing.T) {
	spillDir := t.TempDir()
	srv := service.New(service.Config{PoolSlots: 2, SpillRoot: spillDir})
	defer srv.Close()
	coord, err := cluster.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	ep := transport.WithCollectives(mesh.Endpoint(0), transport.BcastSequential)
	identity := mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) {
		emit(rec[:kv.KeySize], rec[kv.KeySize:])
	})
	before := runtime.NumGoroutine()

	for _, c := range invalidJobs {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			spec.SpillDir = spillDir
			refused := func(entry string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the job", entry)
				}
				if !strings.Contains(err.Error(), "job: ") || !strings.Contains(err.Error(), c.stem) {
					t.Fatalf("%s: error %q lacks the validator's stem %q", entry, err, c.stem)
				}
			}
			if c.wire() {
				_, err := cluster.RunLocal(spec)
				refused("cluster.RunLocal", err)
				_, err = coord.RunJob(spec) // returns before accepting any worker
				refused("Coordinator.RunJob", err)
				_, err = srv.Submit(service.SubmitRequest{Tenant: "t", Spec: spec})
				refused("service.Submit", err)
			}
			_, err := codedpkg.Run(ep, codedpkg.Config{Spec: spec, Local: c.local})
			refused("coded.Run", err)

			// A MapReduce job names its input as one dataset, so it cannot
			// miscount input files, and it reads an empty Algorithm as
			// "let R decide"; every other row applies to it as it stands.
			mr := mapreduce.Job{Spec: spec, Mapper: identity, Part: c.local.Part}
			switch {
			case spec.Algorithm == "":
				return
			case c.local.Input != nil && spec.InputDir == "":
				return
			case c.local.Input != nil:
				mr.Input = kv.NewGenerator(1, kv.DistUniform).Generate(0, 10)
			}
			_, err = mapreduce.Run(ep, mr)
			refused("mapreduce.Run", err)
			_, err = mapreduce.RunLocal(mr)
			refused("mapreduce.RunLocal", err)
		})
	}

	if jobs := srv.Jobs(""); len(jobs) != 0 {
		t.Fatalf("refused submissions left %d jobs in sortd", len(jobs))
	}
	if entries, err := os.ReadDir(spillDir); err != nil || len(entries) != 0 {
		t.Fatalf("refused jobs left spill entries behind: %v, %v", entries, err)
	}
	// Refusal happens before any rank is spawned; allow the runtime a
	// moment to retire goroutines that were already exiting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the refusals, %d after", before, after)
	}
}

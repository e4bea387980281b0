package cluster

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"codedterasort/internal/coded"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
	"codedterasort/internal/transport"
)

// tamperOutput wraps runWorker so that the first block of rank's output
// stream reaches its checker as tamper's rewrite of a copy of it — a faulty
// rank the verifier must catch. The tests' partitions fit in one block.
func tamperOutput(rank int, tamper func(kv.Records) kv.Records) workerFunc {
	return func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error) {
		if check := sink; ep.Rank() == rank {
			tampered := false
			sink = func(block kv.Records) error {
				if !tampered && block.Len() > 0 {
					tampered = true
					block = tamper(block.Clone())
				}
				return check(block)
			}
		}
		return runWorker(ep, spec, local, sink, hooks)
	}
}

// TestVerifyCatchesFaultyRank: the in-process runtime's own verification,
// fed one rank's output with a single fault, fails the job and names the
// mismatch, in memory and out of core, without blaming a rank. The last
// case is a rank that writes into an input file it loaded: the file was
// described as it was made, before the rank saw it, so the corrupted
// record fails the multiset check instead of being verified against
// itself.
func TestVerifyCatchesFaultyRank(t *testing.T) {
	inMemory := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 71}
	outOfCore := inMemory
	outOfCore.MemBudget, outOfCore.SpillDir = 16<<10, t.TempDir()
	flipValue := func(r kv.Records) kv.Records {
		r.Value(r.Len() / 2)[5] ^= 0x40
		return r
	}
	swap := func(r kv.Records) kv.Records {
		r.Swap(10, 11)
		return r
	}
	cases := []struct {
		name string
		spec Spec
		work workerFunc
		want string
	}{
		{"dropped record", inMemory, tamperOutput(1, func(r kv.Records) kv.Records {
			return r.Slice(1, r.Len())
		}), "rows"},
		{"duplicated record", inMemory, tamperOutput(1, func(r kv.Records) kv.Records {
			return r.Slice(0, 1).AppendRecords(r)
		}), "rows"},
		{"flipped value byte", inMemory, tamperOutput(1, flipValue), "checksum"},
		{"swapped adjacent pair", inMemory, tamperOutput(1, swap), "not sorted"},
		// The check fails inside the rank's Reduce, which must still finish:
		// the failure is the job's verification, not a rank fault.
		{"swapped adjacent pair out of core", outOfCore, tamperOutput(1, swap), "not sorted"},
		// r = 1, so rank 1 is its file's only reader and the write races
		// with no other rank.
		{"write into aliased input", Spec{Algorithm: AlgTeraSort, K: 4, Rows: 4000, Seed: 71},
			func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error) {
				if load := local.Load; ep.Rank() == 1 {
					local.Load = func(i int) (kv.Records, error) {
						f, err := load(i)
						if err == nil {
							flipValue(f)
						}
						return f, err
					}
				}
				return runWorker(ep, spec, local, sink, hooks)
			}, "checksum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := runLocal(context.Background(), c.spec, Options{}, runWorker); err != nil {
				t.Fatalf("healthy run: %v", err)
			}
			_, err := runLocal(context.Background(), c.spec, Options{}, c.work)
			if err == nil {
				t.Fatal("faulty rank passed verification")
			}
			if !strings.Contains(err.Error(), "verification failed") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the %s mismatch", err, c.want)
			}
			if strings.Contains(err.Error(), "failed at") {
				t.Fatalf("error %q blames a rank for the verifier's finding", err)
			}
		})
	}
}

// scanFunc is an out-of-core rank's input scan (job.Local.Scan).
type scanFunc = func(i, blockRows int, fn func(kv.Records) error) error

// tamperScan wraps runWorker so that rank scans its input through tamper,
// which is handed the supervisor's scan and the rank's call and decides
// what reaches the rank.
func tamperScan(rank int, tamper func(scan scanFunc, i, blockRows int, fn func(kv.Records) error) error) workerFunc {
	return func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error) {
		if scan := local.Scan; ep.Rank() == rank {
			local.Scan = func(i, blockRows int, fn func(kv.Records) error) error {
				return tamper(scan, i, blockRows, fn)
			}
		}
		return runWorker(ep, spec, local, sink, hooks)
	}
}

// TestVerifyCatchesFaultyScan: an out-of-core job's input is described from
// the blocks the supervisor hands its ranks, so a rank that loses or alters
// what it was handed fails verification: a dropped block or a file the
// rank never scans on rows (the supervisor checks each file was described
// whole), a byte flipped after hand-off on the checksum (each block was
// digested before the rank saw it). At r = 1 rank 1 is file 1's only
// holder, so its description and its records are one rank's alone.
func TestVerifyCatchesFaultyScan(t *testing.T) {
	spec := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 4000, Seed: 73, MemBudget: 16 << 10}
	cases := []struct {
		name   string
		tamper func(scan scanFunc, i, blockRows int, fn func(kv.Records) error) error
		want   string
	}{
		{"dropped block", func(scan scanFunc, i, blockRows int, fn func(kv.Records) error) error {
			n := 0
			return scan(i, blockRows, func(b kv.Records) error {
				if n++; n == 2 {
					return nil
				}
				return fn(b)
			})
		}, "rows"},
		{"unscanned file", func(scanFunc, int, int, func(kv.Records) error) error {
			return nil
		}, "rows"},
		{"flipped byte after hand-off", func(scan scanFunc, i, blockRows int, fn func(kv.Records) error) error {
			return scan(i, blockRows, func(b kv.Records) error {
				b.Value(b.Len() / 2)[5] ^= 0x40
				return fn(b)
			})
		}, "checksum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec.SpillDir = t.TempDir()
			if _, err := runLocal(context.Background(), spec, Options{}, runWorker); err != nil {
				t.Fatalf("healthy run: %v", err)
			}
			_, err := runLocal(context.Background(), spec, Options{}, tamperScan(1, c.tamper))
			if err == nil {
				t.Fatal("faulty rank passed verification")
			}
			if !strings.Contains(err.Error(), "verification failed") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the %s mismatch", err, c.want)
			}
		})
	}
}

// TestScannedFileCountedOnce: the lowest-ranked holder of a file is killed
// on entering Map, after which its peers finish their Maps — scans whose
// files are described — before the attempt is torn down; the retry scans
// and describes every file again. Each description replaces the last, so
// the recovered job validates against each file counted once, in both
// algorithms.
func TestScannedFileCountedOnce(t *testing.T) {
	for _, spec := range []Spec{
		{Algorithm: AlgTeraSort, K: 4, Rows: 3000, Seed: 79},
		{Algorithm: AlgCoded, K: 4, R: 2, Rows: 3000, Seed: 79},
	} {
		spec.MemBudget, spec.SpillDir, spec.MaxAttempts = 16<<10, t.TempDir(), 2
		spec.Faults = []FaultSpec{{Rank: 0, Stage: "Map", Kind: job.FaultKill}}
		rep, err := RunLocal(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Algorithm, err)
		}
		if !rep.Validated || rep.Attempts != 2 {
			t.Fatalf("%s: validated=%v after %d attempts", spec.Algorithm, rep.Validated, rep.Attempts)
		}
	}
}

// TestSharedInputReleased: the source lets go of each file once all its
// holders have taken it, and every rank lets go of its files — and of the
// views its Map kept into them — once it has reduced, so after the last
// Reduce no input file is reachable. That holds with a second attempt
// allowed too: a retry makes the files again, so nothing keeps them for
// it.
func TestSharedInputReleased(t *testing.T) {
	for _, attempts := range []int{1, 2} {
		spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 8000, Seed: 52, MaxAttempts: attempts}
		var mu sync.Mutex
		refs := map[int]weak.Pointer[byte]{}
		var reduces atomic.Int32
		live := -1
		opts := Options{OnStage: func(rec trace.StageRecord) {
			if rec.Stage.String() != "Reduce" || reduces.Add(1) != int32(spec.K) {
				return
			}
			// The last rank has reduced: every file is unreachable unless
			// something still holds it.
			runtime.GC()
			mu.Lock()
			defer mu.Unlock()
			live = 0
			for _, ref := range refs {
				if ref.Value() != nil {
					live++
				}
			}
		}}
		_, err := runLocal(context.Background(), spec, opts,
			func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error) {
				load := local.Load
				local.Load = func(i int) (kv.Records, error) {
					f, err := load(i)
					if err == nil {
						mu.Lock()
						if _, ok := refs[i]; !ok {
							refs[i] = weak.Make(&f.Bytes()[0])
						}
						mu.Unlock()
					}
					return f, err
				}
				return runWorker(ep, spec, local, sink, hooks)
			})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := placement.Redundant(spec.K, spec.R, spec.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != plan.NumFiles() {
			t.Fatalf("MaxAttempts %d: %d files handed over, plan has %d", attempts, len(refs), plan.NumFiles())
		}
		if live != 0 {
			t.Fatalf("MaxAttempts %d: %d of %d input files alive after the last Reduce, want 0",
				attempts, live, len(refs))
		}
	}
}

// TestFileSourceShares: the in-process source makes each in-memory file
// once for all its holders, loading concurrently. At K = 4 and r = 2 and 3,
// every holder of a file is handed the same buffer; the file is described
// once, by its lowest-ranked holder, as the file it was handed; and once
// every holder has loaded, no file is reachable from the source.
func TestFileSourceShares(t *testing.T) {
	for _, r := range []int{2, 3} {
		jp, err := prepare(Spec{Algorithm: AlgCoded, K: 4, R: r, Rows: 30000, Seed: 61})
		if err != nil {
			t.Fatal(err)
		}
		src := newFileSource(jp.spec, jp.resolved, jp.plan, kv.Records{}, -1)
		ctx := context.Background()
		holders := make([]*holder, jp.spec.K)
		// refs[rank][i] is the buffer rank was handed as file i; sums the
		// digests of the files each rank was handed.
		refs := make([]map[int]weak.Pointer[byte], jp.spec.K)
		sums := make([]map[int]uint64, jp.spec.K)
		var wg sync.WaitGroup
		for rank := range jp.spec.K {
			wg.Add(1)
			go func() {
				defer wg.Done()
				local, h := src.hold(ctx, rank)
				holders[rank] = h
				refs[rank], sums[rank] = map[int]weak.Pointer[byte]{}, map[int]uint64{}
				files := jp.plan.FilesOn(rank)
				// Alternate ranks load in opposite orders, so holders race
				// for the same file from both ends.
				if rank%2 == 1 {
					slices.Reverse(files)
				}
				for _, i := range files {
					f, err := local.Load(i)
					if err != nil {
						t.Error(err)
						return
					}
					refs[rank][i], sums[rank][i] = weak.Make(&f.Bytes()[0]), f.Checksum()
				}
			}()
		}
		wg.Wait()
		described := map[int]int{}
		for rank, h := range holders {
			for _, d := range h.described {
				described[d.File]++
				if min := jp.plan.Files[d.File].Min(); min != rank {
					t.Fatalf("r=%d: file %d described by rank %d, its lowest-ranked holder is %d", r, d.File, rank, min)
				}
				if d.Rows != jp.plan.FileRowCount(d.File) || d.Checksum != sums[rank][d.File] {
					t.Fatalf("r=%d: file %d described as %+v, not as the file handed over", r, d.File, d.Input)
				}
			}
		}
		for i, set := range jp.plan.Files {
			if described[i] != 1 {
				t.Fatalf("r=%d: file %d described %d times", r, i, described[i])
			}
			for _, rank := range set.Members() {
				if refs[rank][i] != refs[set.Min()][i] {
					t.Fatalf("r=%d: ranks %d and %d were handed different buffers as file %d", r, set.Min(), rank, i)
				}
			}
		}
		runtime.GC()
		for i := range jp.plan.Files {
			if refs[jp.plan.Files[i].Min()][i].Value() != nil {
				t.Fatalf("r=%d: file %d still reachable once all its holders loaded it", r, i)
			}
		}
		runtime.KeepAlive(src)
		runtime.KeepAlive(holders)
	}
}

// cancelOnLoad wraps runWorker so that every rank cancels the job before
// it loads a file, and counts the files handed over whole and the ranks
// that begin a Map.
func cancelOnLoad(cancel context.CancelFunc, made, maps *atomic.Int64) workerFunc {
	return func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error) {
		load := local.Load
		local.Load = func(i int) (kv.Records, error) {
			cancel()
			f, err := load(i)
			if err == nil {
				made.Add(1)
			}
			return f, err
		}
		observe := hooks
		hooks = func(ev coded.StageEvent) {
			if ev.Stage == stats.StageMap {
				maps.Add(1)
			}
			observe(ev)
		}
		return runWorker(ep, spec, local, sink, hooks)
	}
}

// TestCancelDuringPlacement: a cancel that arrives while the ranks place an
// in-memory job's input — a sortd drain — stops the generation loop of
// every file at its first piece, returns the context's error, lets no rank
// begin its Map, and leaves no goroutine, descriptor or spill entry
// behind.
func TestCancelDuringPlacement(t *testing.T) {
	var made, maps atomic.Int64
	leaks := snapshotLeaks()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spill := t.TempDir()
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 200_000, Seed: 8, SpillDir: spill}
	if _, err := runLocal(ctx, spec, Options{}, cancelOnLoad(cancel, &made, &maps)); !errors.Is(err, context.Canceled) {
		t.Fatalf("job canceled during placement returned %v, want context.Canceled", err)
	}
	if n := made.Load(); n != 0 {
		t.Fatalf("%d files made whole after a cancel during placement", n)
	}
	if n := maps.Load(); n != 0 {
		t.Fatalf("%d ranks began Map after a cancel during placement", n)
	}
	if err := leaks.check(spill); err != nil {
		t.Fatal(err)
	}
}

// TestInputDirSampledInMemory: an in-memory InputDir job's ranks load their
// part files through the supervisor's source and run on the verifier's
// splitters instead of sampling the files themselves. They are the splitters the
// out-of-core job's ranks sample, and both runs agree rank for rank. The
// report still names the directory. At 3001 rows and a sample of 70 the
// file boundaries fall off the global sample stride, so sampling the
// handed-over files would pick other rows than sampling the part files.
func TestInputDirSampledInMemory(t *testing.T) {
	const k = 4
	dir := writeDiskInput(t, kv.NewGenerator(19, kv.DistUniform).Generate(0, 3001), k)
	var reps []*JobReport
	for _, budget := range []int64{0, 16 * 1024} {
		spec := Spec{Algorithm: AlgTeraSort, K: k, InputDir: dir, Partitioning: "sample", SampleSize: 70,
			MemBudget: budget, SpillDir: t.TempDir()}
		rep, err := RunLocal(spec)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !rep.Validated || rep.Spec.InputDir != dir {
			t.Fatalf("budget %d: validated=%v, report names input dir %q", budget, rep.Validated, rep.Spec.InputDir)
		}
		reps = append(reps, rep)
	}
	for r := 0; r < k; r++ {
		mem, ooc := reps[0].Workers[r], reps[1].Workers[r]
		if mem.OutputChecksum != ooc.OutputChecksum || mem.OutputRows != ooc.OutputRows {
			t.Fatalf("rank %d: in-memory and out-of-core outputs differ", r)
		}
		for i := range mem.SplitterBounds {
			if !bytes.Equal(mem.SplitterBounds[i], ooc.SplitterBounds[i]) {
				t.Fatalf("rank %d: splitter %d differs in memory and out of core", r, i)
			}
		}
	}
}

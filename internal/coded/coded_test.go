package coded

import (
	"strings"
	"sync"
	"testing"

	"codedterasort/internal/codec"
	"codedterasort/internal/combin"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
	"codedterasort/internal/verify"
)

// cfgOf is the coded sort of the given job: what most tests start from.
func cfgOf(s job.Spec) Config {
	s.Algorithm = job.AlgCoded
	return Config{Spec: s}
}

// withInput attaches c's input as a runtime does, generated from its spec —
// whole to Place (Load), in blocks to the out-of-core Map (Scan) — unless
// c attaches its own.
func withInput(c Config) Config {
	if c.Load != nil || c.Scan != nil {
		return c
	}
	spec, err := c.Resolve(c.Local)
	if err != nil {
		return c // Run refuses it
	}
	plan, err := spec.Strat.Plan(c.Rows)
	if err != nil {
		return c
	}
	gen := kv.NewGenerator(c.Seed, spec.KeyDist)
	c.Load = func(i int) (kv.Records, error) { return plan.Materialize(gen, i), nil }
	c.Scan = func(i, blockRows int, fn func(kv.Records) error) error {
		first, last := plan.FileRows(i)
		return gen.GenerateBlocks(first, last-first, blockRows, fn)
	}
	return c
}

// supplied attaches the given input files as a runtime does: file i whole
// to Place (Load), in blocks to the out-of-core Map (Scan).
func supplied(files []kv.Records) job.Local {
	return job.Local{
		Load: func(i int) (kv.Records, error) { return files[i], nil },
		Scan: func(i, blockRows int, fn func(kv.Records) error) error {
			return files[i].ForEachBlock(blockRows, fn)
		},
	}
}

// selecting is the Transform that keeps the records keep accepts: a
// selecting Map, such as Grep's.
func selecting(keep func(rec []byte) bool) func(rec []byte, emit func([]byte)) {
	return func(rec []byte, emit func([]byte)) {
		if keep(rec) {
			emit(rec)
		}
	}
}

// runAll executes a full sort over an in-memory mesh and returns all worker
// results.
func runAll(t *testing.T, cfg Config) []Result {
	t.Helper()
	return runAllWith(t, cfg, nil)
}

// runAllWith is runAll with a per-rank configuration hook (budget tests
// install per-rank output sinks, which must not be shared).
func runAllWith(t *testing.T, cfg Config, perRank func(rank int, c *Config)) []Result {
	t.Helper()
	workers := runWorkers(t, cfg, perRank, nil, nil)
	results := make([]Result, len(workers))
	for i, w := range workers {
		results[i] = w.result
	}
	return results
}

// runWorkers runs every rank of a sort over an in-memory mesh and returns
// the finished workers, whose retained state white-box tests inspect.
// perRank (may be nil) adjusts each rank's config; clock (may be nil)
// supplies the clock a worker's stages are timed by once the worker exists;
// wrap (may be nil) wraps each rank's endpoint of the mesh.
func runWorkers(t *testing.T, cfg Config, perRank func(rank int, c *Config), clock func(*worker) stats.Clock,
	wrap func(rank int, c transport.Conn) transport.Conn) []*worker {
	t.Helper()
	mesh := memnet.NewMesh(cfg.K)
	defer mesh.Close()
	workers := make([]*worker, cfg.K)
	errs := make([]error, cfg.K)
	var wg sync.WaitGroup
	for r := 0; r < cfg.K; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := cfg
			if perRank != nil {
				perRank(rank, &c)
			}
			c = withInput(c)
			var conn transport.Conn = mesh.Endpoint(rank)
			if wrap != nil {
				conn = wrap(rank, conn)
			}
			ep := transport.WithCollectives(conn)
			w, err := newWorker(ep, c)
			if err == nil {
				var clk stats.Clock = stats.NewWallClock()
				if clock != nil {
					clk = clock(w)
				}
				name, stages := w.schedule()
				err = w.run(clk, name, stages)
			}
			workers[rank], errs[rank] = w, err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return workers
}

func outputs(results []Result) []kv.Records {
	out := make([]kv.Records, len(results))
	for i, r := range results {
		out[i] = r.Output
	}
	return out
}

// checkSorted checks materialized partitions as the runtime checks a
// streamed output: each partition through its verify.PartitionChecker, as
// one block, then verify.CheckSummaries over the summaries.
func checkSorted(outs []kv.Records, p partition.Partitioner, in verify.Input) error {
	sums := make([]verify.Summary, len(outs))
	for k, out := range outs {
		c := verify.NewPartitionChecker(p, k)
		if err := c.Feed(out); err != nil {
			return err
		}
		sums[k] = c.Summary()
	}
	return verify.CheckSummaries(sums, in)
}

// allOutput is every rank's output appended in rank order.
func allOutput(results []Result) kv.Records {
	var all kv.Records
	for _, r := range results {
		all = all.AppendRecords(r.Output)
	}
	return all
}

func TestEndToEndSortsCorrectly(t *testing.T) {
	for _, r := range []int{1, 2} {
		cfg := cfgOf(job.Spec{K: 4, R: r, Rows: 4200, Seed: 1})
		results := runAll(t, cfg)
		in := verify.DescribeGenerated(kv.NewGenerator(1, kv.DistUniform), cfg.Rows)
		if err := checkSorted(outputs(results), partition.NewUniform(4), in); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
	}
}

// TestReduceStreamsToSink: with an OutputSink an in-memory Reduce never
// materializes its partition — the sink sees ascending blocks of at most
// reduceBlockRows records, the Result's Output stays empty, and the blocks
// concatenate to exactly the sink-less Output — monolithic and chunked, at
// r = 1 and r = 2. 40 000 rows make partitions of several blocks.
func TestReduceStreamsToSink(t *testing.T) {
	const k, rows, seed = 4, 40_000, 29
	for _, chunk := range []int{0, 1500} {
		for _, r := range []int{1, 2} {
			spec := job.Spec{K: k, R: r, Rows: rows, Seed: seed, ChunkRows: chunk}
			ref := runAll(t, cfgOf(spec))
			streamed := make([]kv.Records, k)
			results := runAllWith(t, cfgOf(spec), func(rank int, c *Config) {
				c.OutputSink = func(block kv.Records) error {
					if block.Len() > reduceBlockRows || !block.IsSorted() {
						t.Errorf("chunk=%d r=%d rank %d: block of %d rows, sorted %v",
							chunk, r, rank, block.Len(), block.IsSorted())
					}
					streamed[rank] = streamed[rank].AppendRecords(block)
					return nil
				}
			})
			for rank, res := range results {
				if res.Output.Len() != 0 || res.OutputRows != int64(streamed[rank].Len()) {
					t.Fatalf("chunk=%d r=%d rank %d: Output holds %d rows with a sink, %d reported, %d streamed",
						chunk, r, rank, res.Output.Len(), res.OutputRows, streamed[rank].Len())
				}
				if streamed[rank].Len() <= reduceBlockRows || !streamed[rank].Equal(ref[rank].Output) {
					t.Fatalf("chunk=%d r=%d rank %d: %d streamed rows are not the sink-less output",
						chunk, r, rank, streamed[rank].Len())
				}
			}
		}
	}
}

func TestMatchesSequentialSort(t *testing.T) {
	for _, spec := range []job.Spec{
		{K: 3, R: 1, Rows: 900, Seed: 7},
		{K: 4, R: 2, Rows: 1200, Seed: 7},
	} {
		cfg := cfgOf(spec)
		results := runAll(t, cfg)
		all := allOutput(results)
		want := kv.NewGenerator(7, kv.DistUniform).Generate(0, cfg.Rows)
		want.Sort()
		if !all.Equal(want) {
			t.Fatalf("K=%d r=%d: distributed output != sequential sort", cfg.K, cfg.R)
		}
	}
}

func TestMatchesTeraSortOutput(t *testing.T) {
	// CodedTeraSort and TeraSort (r = 1) must produce identical
	// per-partition outputs for the same input and partitioner.
	const k, rows, seed = 5, 2500, 42
	codedRes := runAll(t, cfgOf(job.Spec{K: k, R: 3, Rows: rows, Seed: seed}))
	teraRes := runAll(t, cfgOf(job.Spec{K: k, R: 1, Rows: rows, Seed: seed}))
	for rank := 0; rank < k; rank++ {
		if !codedRes[rank].Output.Equal(teraRes[rank].Output) {
			t.Fatalf("partition %d differs between redundancy levels", rank)
		}
	}
}

func TestAllRedundancyLevels(t *testing.T) {
	// r = 1 (no coding benefit, unicast-equivalent) through r = K
	// (everything local, nothing shuffled).
	const k, rows = 5, 1500
	for r := 1; r <= k; r++ {
		cfg := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: uint64(r)})
		results := runAll(t, cfg)
		in := verify.DescribeGenerated(kv.NewGenerator(uint64(r), kv.DistUniform), rows)
		if err := checkSorted(outputs(results), partition.NewUniform(k), in); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if r == k {
			for _, res := range results {
				if res.SentOps != 0 {
					t.Fatalf("r=K should multicast nothing, got %d ops", res.SentOps)
				}
			}
		}
	}
}

// TestRelayedMulticastValidates: at K = 6, r = 3 every packet relays
// through two members of its group of four, and the sort still verifies
// against the input.
func TestRelayedMulticastValidates(t *testing.T) {
	cfg := cfgOf(job.Spec{K: 6, R: 3, Rows: 3000, Seed: 99})
	results := runAll(t, cfg)
	in := verify.DescribeGenerated(kv.NewGenerator(99, kv.DistUniform), cfg.Rows)
	if err := checkSorted(outputs(results), partition.NewUniform(6), in); err != nil {
		t.Fatal(err)
	}
}

func TestVariousClusterSizes(t *testing.T) {
	for _, k := range []int{1, 2, 5, 8, 16} {
		cfg := cfgOf(job.Spec{K: k, R: 1, Rows: int64(200 * k), Seed: uint64(k)})
		results := runAll(t, cfg)
		in := verify.DescribeGenerated(kv.NewGenerator(uint64(k), kv.DistUniform), cfg.Rows)
		if err := checkSorted(outputs(results), partition.NewUniform(k), in); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	// Includes fewer rows than nodes (K=8, 3 rows).
	for _, spec := range []job.Spec{
		{K: 3, R: 1}, {K: 8, R: 1, Rows: 3},
		{K: 4, R: 2}, {K: 4, R: 2, Rows: 1}, {K: 4, R: 2, Rows: 5},
	} {
		spec.Seed = 3
		cfg := cfgOf(spec)
		results := runAll(t, cfg)
		in := verify.DescribeGenerated(kv.NewGenerator(3, kv.DistUniform), cfg.Rows)
		if err := checkSorted(outputs(results), partition.NewUniform(cfg.K), in); err != nil {
			t.Fatalf("K=%d r=%d rows=%d: %v", cfg.K, cfg.R, cfg.Rows, err)
		}
	}
}

func TestSkewedInputWithSampledPartitioner(t *testing.T) {
	// Production TeraSort practice: sample, then range-partition. The run
	// must stay correct under heavy key skew.
	const k, rows = 4, 4000
	sample := kv.NewGenerator(9, kv.DistSkewed).Generate(0, 400)
	part, err := partition.FromSample(sample, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2} {
		cfg := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: 9, DistName: "skewed"})
		cfg.Part = part
		results := runAll(t, cfg)
		in := verify.DescribeGenerated(kv.NewGenerator(9, kv.DistSkewed), rows)
		if err := checkSorted(outputs(results), part, in); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
	}
}

func TestGroupCount(t *testing.T) {
	// Each node belongs to C(K-1, r) multicast groups and multicasts one
	// packet in each. K = 3, r = 2 is the paper's Fig 1b: one group, one
	// packet per node, three in all.
	for _, c := range []struct{ k, r, rows int }{{6, 2, 600}, {3, 2, 60000}} {
		cfg := cfgOf(job.Spec{K: c.k, R: c.r, Rows: int64(c.rows), Seed: 1})
		results := runAll(t, cfg)
		want := int(combin.Binomial(c.k-1, c.r))
		var packets int64
		for rank, res := range results {
			if res.Groups != want {
				t.Fatalf("K=%d r=%d: rank %d in %d groups, want %d", c.k, c.r, rank, res.Groups, want)
			}
			if res.SentOps != int64(want) {
				t.Fatalf("K=%d r=%d: rank %d multicast %d packets, want %d", c.k, c.r, rank, res.SentOps, want)
			}
			packets += res.SentOps
		}
		if wantAll := int64(c.k * want); packets != wantAll {
			t.Fatalf("K=%d r=%d: %d packets in all, want %d", c.k, c.r, packets, wantAll)
		}
	}
}

func TestMulticastLoadBeatsUncodedByR(t *testing.T) {
	// The headline result: total multicast payload (counted once per
	// packet) is ~1/r of what TeraSort-style unicast would move for the
	// same placement-adjusted demand: D*(1-r/K)/r vs D*(K-1)/K.
	const k, rows, seed = 6, 12000, 5
	dataBytes := int64(rows * kv.RecordSize)
	teraBytes := dataBytes * int64(k-1) / int64(k)
	for r := 2; r <= 4; r++ {
		results := runAll(t, cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed}))
		var coded int64
		for _, res := range results {
			coded += res.SentBytes
		}
		wantLoad := float64(dataBytes) * (1 - float64(r)/float64(k)) / float64(r)
		if f := float64(coded); f < wantLoad*0.95 || f > wantLoad*1.15 {
			t.Fatalf("r=%d: multicast bytes %d, theory %.0f", r, coded, wantLoad)
		}
		gain := float64(teraBytes) / float64(coded)
		// Effective gain over TeraSort: r * ((K-1)/K) / (1-r/K); padding
		// and headers erode it slightly.
		wantGain := float64(r) * (float64(k-1) / float64(k)) / (1 - float64(r)/float64(k))
		if gain < wantGain*0.85 || gain > wantGain*1.1 {
			t.Fatalf("r=%d: load gain %.2f, want about %.2f", r, gain, wantGain)
		}
	}
}

func TestFig5RelevantIVFiltering(t *testing.T) {
	// Paper Fig 5 (K=4, r=2), node 0 (paper's Node 1) maps file {0,1}:
	// it keeps I^0, I^2, I^3 of that file and drops I^1, which node 1
	// computes locally.
	plan, err := placement.Redundant(4, 2, 1200)
	if err != nil {
		t.Fatal(err)
	}
	gen := kv.NewGenerator(4, kv.DistUniform)
	store := MapFiles(plan, partition.NewUniform(4), gen, 0)
	file := combin.NewSet(0, 1)
	if store.IV(0, file).Len() == 0 && store.IV(2, file).Len() == 0 && store.IV(3, file).Len() == 0 {
		t.Fatalf("expected kept IVs for file %v", file)
	}
	if _, dropped := store[codec.IVKey{Part: 1, File: file}]; dropped {
		t.Fatalf("I^1_{0,1} should be dropped at node 0")
	}
	// Node 0 stores files {0,1},{0,2},{0,3} only.
	for key := range store {
		if !key.File.Contains(0) {
			t.Fatalf("node 0 holds IV of foreign file %v", key.File)
		}
	}
}

func TestMapKeepsCompleteCoverage(t *testing.T) {
	// Union over nodes of kept IVs must cover every (partition, file) pair
	// needed in Reduce: for each file S and partition q, either q's node
	// is in S (q's own Map kept it) or every node of S kept it for coding.
	const k, r = 5, 2
	plan, err := placement.Redundant(k, r, 2000)
	if err != nil {
		t.Fatal(err)
	}
	part := partition.NewUniform(k)
	stores := make([]codec.IVMap, k)
	for rank := 0; rank < k; rank++ {
		stores[rank] = MapFiles(plan, part, kv.NewGenerator(11, kv.DistUniform), rank)
	}
	for _, fileSet := range plan.Files {
		for q := 0; q < k; q++ {
			holders := 0
			for _, rank := range fileSet.Members() {
				if _, ok := stores[rank][codec.IVKey{Part: q, File: fileSet}]; ok {
					holders++
				}
			}
			if fileSet.Contains(q) {
				// q's reducer keeps its own copy; others in S drop it.
				if holders != 1 {
					t.Fatalf("I^%d_%v held by %d nodes, want 1", q, fileSet, holders)
				}
			} else if holders != r {
				t.Fatalf("I^%d_%v held by %d nodes, want %d", q, fileSet, holders, r)
			}
		}
	}
}

func TestStageTimesPopulated(t *testing.T) {
	// Two-member groups (r = 1) build no communicator and report no CodeGen
	// time; larger groups do.
	for _, r := range []int{1, 2} {
		results := runAll(t, cfgOf(job.Spec{K: 4, R: r, Rows: 2000, Seed: 2}))
		for rank, res := range results {
			if gotCodeGen := res.Times[stats.StageCodeGen] > 0; gotCodeGen != (r > 1) {
				t.Fatalf("r=%d rank %d: CodeGen time %v", r, rank, res.Times[stats.StageCodeGen])
			}
			if res.Times[stats.StageReduce] <= 0 || res.Times.Total() <= 0 {
				t.Fatalf("r=%d rank %d: Reduce time missing", r, rank)
			}
		}
	}
}

// TestRunResolvesTheJob: Run refuses a spec job.Resolve refuses (the table
// of those is internal/job's), an attachment that contradicts the spec, an
// input dir (the runtime reads part files, never the engine), a job with
// neither Load nor Scan (the runtime supplies every input), and an endpoint
// of the wrong world size — before any traffic flows.
func TestRunResolvesTheJob(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	ep := transport.WithCollectives(mesh.Endpoint(0))
	wrongPart := cfgOf(job.Spec{K: 2, R: 1})
	wrongPart.Part = partition.NewUniform(7)
	for i, cfg := range []Config{
		withInput(Config{Spec: job.Spec{K: 2, R: 1}}), // no algorithm
		withInput(cfgOf(job.Spec{K: 2, R: 3})),
		withInput(cfgOf(job.Spec{K: 3, R: 1, Rows: 10})), // world-size mismatch
		{Spec: job.Spec{Algorithm: job.AlgTeraSort, K: 2, InputDir: "parts"}},
		wrongPart,
	} {
		if _, err := Run(ep, cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
	// Neither Load nor Scan, in memory and out of core.
	for _, budget := range []int64{0, 1 << 20} {
		cfg := cfgOf(job.Spec{K: 2, R: 1, Rows: 10, MemBudget: budget})
		if _, err := Run(ep, cfg); err == nil || !strings.Contains(err.Error(), "no input") {
			t.Fatalf("mem budget %d: a job with neither Load nor Scan: %v", budget, err)
		}
	}
}

func TestTransportFailureSurfaces(t *testing.T) {
	// A send failure mid-shuffle must produce an error mentioning the
	// stage, not a hang or silent corruption.
	for _, tc := range []struct{ k, r, failAfter int }{{3, 1, 3}, {4, 2, 2}} {
		mesh := memnet.NewMesh(tc.k)
		cfg := withInput(cfgOf(job.Spec{K: tc.k, R: tc.r, Rows: 400, Seed: 3}))
		rank0Err := make(chan error, 1)
		var wg sync.WaitGroup
		go func() {
			conn := netem.Fail(mesh.Endpoint(0), tc.failAfter, transport.ErrClosed)
			ep := transport.WithCollectives(conn)
			_, err := Run(ep, cfg)
			rank0Err <- err
		}()
		for r := 1; r < tc.k; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ep := transport.WithCollectives(mesh.Endpoint(rank))
				// Errors here are expected: the cluster is going down.
				_, _ = Run(ep, cfg)
			}(r)
		}
		err0 := <-rank0Err
		// Tear the mesh down to release peers blocked on the dead rank.
		mesh.Close()
		wg.Wait()
		if err0 == nil {
			t.Fatalf("r=%d: rank 0 should have failed", tc.r)
		}
		if !strings.Contains(err0.Error(), "rank 0") {
			t.Fatalf("r=%d: error lacks context: %v", tc.r, err0)
		}
	}
}

func TestLargerClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// K=8, r=3: 56 files, 70 groups — a mid-scale structural exercise.
	cfg := cfgOf(job.Spec{K: 8, R: 3, Rows: 8000, Seed: 17})
	results := runAll(t, cfg)
	in := verify.DescribeGenerated(kv.NewGenerator(17, kv.DistUniform), cfg.Rows)
	if err := checkSorted(outputs(results), partition.NewUniform(8), in); err != nil {
		t.Fatal(err)
	}
}

func benchmarkSort(b *testing.B, cfg Config) {
	cfg = withInput(cfg)
	for i := 0; i < b.N; i++ {
		mesh := memnet.NewMesh(cfg.K)
		var wg sync.WaitGroup
		for r := 0; r < cfg.K; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ep := transport.WithCollectives(mesh.Endpoint(rank))
				if _, err := Run(ep, cfg); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
		mesh.Close()
	}
}

func BenchmarkTeraSortK4(b *testing.B) {
	benchmarkSort(b, cfgOf(job.Spec{K: 4, R: 1, Rows: 20000, Seed: 1}))
}

func BenchmarkCodedTeraSortK4R2(b *testing.B) {
	benchmarkSort(b, cfgOf(job.Spec{K: 4, R: 2, Rows: 20000, Seed: 1}))
}

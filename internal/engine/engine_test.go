package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"codedterasort/internal/codec"
	"codedterasort/internal/combin"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

func barrierTag(s stats.Stage) transport.Tag {
	return transport.MakeTag(0x7F, uint16(s), 0xFFFF)
}

// TestKindStats: every timed kind maps onto the shared stage axis, and the
// placement kind is untimed.
func TestKindStats(t *testing.T) {
	want := map[Kind]stats.Stage{
		KindCodeGen: stats.StageCodeGen,
		KindMap:     stats.StageMap,
		KindPack:    stats.StagePack,
		KindShuffle: stats.StageShuffle,
		KindUnpack:  stats.StageUnpack,
		KindReduce:  stats.StageReduce,
	}
	for k, st := range want {
		got, timed := k.Stats()
		if !timed || got != st {
			t.Errorf("%v: got (%v, %v), want (%v, true)", k, got, timed, st)
		}
	}
	if _, timed := KindPlace.Stats(); timed {
		t.Errorf("KindPlace must be untimed")
	}
}

// resolved returns the resolved spec of a TeraSort job with the given
// knobs — what a scheduler test hands Run.
func resolved(t testing.TB, s job.Spec) *job.Resolved {
	t.Helper()
	s.Algorithm = job.AlgTeraSort
	r, err := s.Resolve(job.Local{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestModeOf: the scheduler derives the execution mode from the job's
// knobs — MemBudget wins over ChunkRows, ChunkRows alone streams, neither
// is monolithic.
func TestModeOf(t *testing.T) {
	cases := []struct {
		s    job.Spec
		want Mode
	}{
		{job.Spec{K: 4}, ModeMono},
		{job.Spec{K: 4, ChunkRows: 100}, ModeChunked},
		{job.Spec{K: 4, MemBudget: 1 << 20}, ModeSpill},
		{job.Spec{K: 4, ChunkRows: 100, MemBudget: 1 << 20}, ModeSpill},
	}
	for _, c := range cases {
		if got := ModeOf(resolved(t, c.s)); got != c.want {
			t.Errorf("%+v: mode %v, want %v", c.s, got, c.want)
		}
	}
}

// TestGraphEdges: a stage whose need no earlier stage provides fails
// validation, in exactly the modes where the provider is absent.
func TestGraphEdges(t *testing.T) {
	nop := func(*Context) error { return nil }
	g := NewGraph("enginetest", barrierTag)
	g.Add(Stage{Kind: KindMap, Modes: InMemory, Provides: []string{"hashed"}, Run: nop})
	g.Add(Stage{Kind: KindShuffle, Modes: AllModes, Needs: []string{"hashed"}, Run: nop})
	if _, err := g.Schedule(ModeMono); err != nil {
		t.Fatalf("mono schedule: %v", err)
	}
	if _, err := g.Schedule(ModeSpill); err == nil {
		t.Fatal("spill schedule accepted an unmet edge (map only runs in-memory)")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed the unmet spill edge")
	}
}

// TestGraphModeFiltering: the schedule keeps insertion order and picks the
// per-mode stage variant declaratively.
func TestGraphModeFiltering(t *testing.T) {
	nop := func(*Context) error { return nil }
	g := NewGraph("enginetest", barrierTag)
	g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: nop})
	g.Add(Stage{Kind: KindShuffle, Modes: In(ModeMono), Run: nop})
	g.Add(Stage{Kind: KindShuffle, Modes: Streaming, Run: nop})
	g.Add(Stage{Kind: KindReduce, Modes: AllModes, Run: nop})
	for _, m := range []Mode{ModeMono, ModeChunked, ModeSpill} {
		sched, err := g.Schedule(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(sched) != 3 {
			t.Fatalf("%v: %d stages, want 3", m, len(sched))
		}
		if sched[0].Kind != KindMap || sched[1].Kind != KindShuffle || sched[2].Kind != KindReduce {
			t.Fatalf("%v: wrong order %v %v %v", m, sched[0].Kind, sched[1].Kind, sched[2].Kind)
		}
	}
}

// TestRunDrivesStages: a two-rank graph runs its scheduled stages in
// order, charges the context's breakdown with exactly what it reports to
// the hooks, skips timing for the placement stage, and reports stage
// errors with the engine's name prefix.
func TestRunDrivesStages(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()

	var mu sync.Mutex
	order := map[int][]Kind{}
	build := func(rank int, failReduce bool) *Graph {
		note := func(k Kind) func(*Context) error {
			return func(ctx *Context) error {
				mu.Lock()
				order[rank] = append(order[rank], k)
				mu.Unlock()
				if failReduce && k == KindReduce {
					return errors.New("boom")
				}
				return nil
			}
		}
		g := NewGraph("enginetest", barrierTag)
		g.Add(Stage{Kind: KindPlace, Modes: AllModes, Run: note(KindPlace)})
		g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: note(KindMap)})
		g.Add(Stage{Kind: KindReduce, Modes: AllModes, Run: note(KindReduce)})
		return g
	}

	var ctxs [2]*Context
	var events [2][]StageEvent
	errs := [2]error{}
	spec := resolved(t, job.Spec{K: 2})
	run := func(r int, wg *sync.WaitGroup) {
		defer wg.Done()
		hooks := func(ev StageEvent) { events[r] = append(events[r], ev) }
		ep := transport.WithCollectives(mesh.Endpoint(r), transport.BcastSequential)
		ctxs[r], errs[r] = Run(ep, build(r, r == 0), spec, stats.NewWallClock(), hooks)
	}
	var wg0, wg1 sync.WaitGroup
	wg0.Add(1)
	wg1.Add(1)
	go run(1, &wg1)
	go run(0, &wg0)
	// Rank 0 fails in Reduce before its barrier, so rank 1's post-Reduce
	// barrier can never complete; close the mesh once rank 0 exits to
	// unblock rank 1 with ErrClosed — the same teardown a real job uses.
	wg0.Wait()
	mesh.Close()
	wg1.Wait()

	if errs[0] == nil || !strings.Contains(errs[0].Error(), "enginetest: rank 0 Reduce stage: boom") {
		t.Fatalf("rank 0 error = %v", errs[0])
	}
	for r := 0; r < 2; r++ {
		want := []Kind{KindPlace, KindMap, KindReduce}
		if fmt.Sprint(order[r]) != fmt.Sprint(want) {
			t.Fatalf("rank %d ran %v, want %v", r, order[r], want)
		}
	}
	// Hooks observed only the timed stages, in order.
	if len(events[0]) != 2 || events[0][0].Stage != stats.StageMap || events[0][1].Stage != stats.StageReduce {
		t.Fatalf("rank 0 hook events: %+v", events[0])
	}
	if events[0][1].Err == nil {
		t.Fatalf("reduce failure not reported to hooks: %+v", events[0][1])
	}
	// The breakdown holds exactly the reported elapsed times, the failed
	// stage's included.
	for r := 0; r < 2; r++ {
		var want stats.Breakdown
		for _, ev := range events[r] {
			want[ev.Stage] += ev.Elapsed
		}
		if ctxs[r] == nil || ctxs[r].Times != want {
			t.Fatalf("rank %d breakdown %v, hooks reported %v", r, ctxs[r].Times, want)
		}
	}
}

// TestRunBarrierSynchronizes: with clean stages, all ranks complete and
// each timed stage ends with a cluster barrier (checked by stage overlap:
// rank 0 cannot enter Reduce before rank 1 finishes Map).
func TestRunBarrierSynchronizes(t *testing.T) {
	const k = 3
	mesh := memnet.NewMesh(k)
	defer mesh.Close()

	var mu sync.Mutex
	mapDone := 0
	errs := [k]error{}
	spec := resolved(t, job.Spec{K: k})
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := NewGraph("enginetest", barrierTag)
			g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: func(*Context) error {
				mu.Lock()
				mapDone++
				mu.Unlock()
				return nil
			}})
			g.Add(Stage{Kind: KindReduce, Modes: AllModes, Run: func(*Context) error {
				mu.Lock()
				defer mu.Unlock()
				if mapDone != k {
					return fmt.Errorf("reduce entered with %d/%d maps done", mapDone, k)
				}
				return nil
			}})
			ep := transport.WithCollectives(mesh.Endpoint(r), transport.BcastSequential)
			_, errs[r] = Run(ep, g, spec, stats.NewWallClock(), nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestContextDeferLIFO: cleanups run when the run ends, last-registered
// first, on success and on failure.
func TestContextDeferLIFO(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	var got []string
	g := NewGraph("enginetest", barrierTag)
	g.Add(Stage{Kind: KindMap, Modes: AllModes, Run: func(ctx *Context) error {
		ctx.Defer(func() { got = append(got, "a") })
		ctx.Defer(func() { got = append(got, "b") })
		return nil
	}})
	ep := transport.WithCollectives(mesh.Endpoint(0), transport.BcastSequential)
	if _, err := Run(ep, g, resolved(t, job.Spec{K: 1}), stats.NewWallClock(), nil); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[b a]" {
		t.Fatalf("cleanup order %v, want [b a]", got)
	}
}

// TestChunkRx: the receive driver consumes a framed chunk stream to its
// last flag in protocol order (ack before decode), hands every decoded
// chunk to the consumer, and counts chunks.
func TestChunkRx(t *testing.T) {
	recs := kv.NewGenerator(7, kv.DistUniform).Generate(0, 10)
	frames := [][]byte{
		append([]byte(nil), codec.FrameSegmentChunk(0, false, recs.Slice(0, 4))...),
		append([]byte(nil), codec.FrameSegmentChunk(1, false, recs.Slice(4, 7))...),
		append([]byte(nil), codec.FrameSegmentChunk(2, true, recs.Slice(7, 10))...),
	}
	next := 0
	acks := 0
	out := kv.MakeRecords(0)
	rx := ChunkRx{
		Recv: func() ([]byte, error) {
			if next >= len(frames) {
				return nil, errors.New("stream overran its last chunk")
			}
			f := frames[next]
			next++
			return f, nil
		},
		Ack: func() error { acks++; return nil },
		Decode: func(c int, payload []byte) (kv.Records, error) {
			// A two-member group has nothing to cancel: the store is unread.
			pair := codec.CliqueGroup(combin.NewSet(0, 1))
			return codec.DecodeGroupPacketChunk(codec.IVMap{}, pair, 0, 1, 4, c, payload)
		},
		Consume: func(r kv.Records) error { out = out.AppendRecords(r); return nil },
	}
	var c Counters
	if err := rx.Run(&c); err != nil {
		t.Fatal(err)
	}
	if acks != 3 || c.ChunksReceived() != 3 {
		t.Fatalf("acks=%d chunks=%d, want 3 each", acks, c.ChunksReceived())
	}
	if !out.Equal(recs) {
		t.Fatal("reassembled stream differs from the source records")
	}
}

// TestChunkRxWrapsStreamErrors: framing violations surface through the
// caller's wrapper; decode errors pass through as-is.
func TestChunkRxWrapsStreamErrors(t *testing.T) {
	bad := append([]byte(nil), codec.FrameSegmentChunk(5, true, kv.Records{})...) // wrong seq
	rx := ChunkRx{
		Recv:          func() ([]byte, error) { return bad, nil },
		Ack:           func() error { return nil },
		Decode:        func(int, []byte) (kv.Records, error) { return kv.Records{}, nil },
		Consume:       func(kv.Records) error { return nil },
		WrapStreamErr: func(err error) error { return fmt.Errorf("wrapped: %w", err) },
	}
	var c Counters
	err := rx.Run(&c)
	if err == nil || !strings.HasPrefix(err.Error(), "wrapped: ") {
		t.Fatalf("stream error not wrapped: %v", err)
	}
}

// TestCreditGate: the gate blocks the window at its bound, one await per
// over-window chunk, and drains the tail.
func TestCreditGate(t *testing.T) {
	awaits := 0
	g := CreditGate{Window: 2, Await: func() error { awaits++; return nil }}
	for i := 0; i < 5; i++ {
		if err := g.Reserve(); err != nil {
			t.Fatal(err)
		}
		g.Sent()
	}
	if awaits != 3 { // chunks 3,4,5 each waited for one credit
		t.Fatalf("awaits=%d during sends, want 3", awaits)
	}
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}
	if awaits != 5 {
		t.Fatalf("awaits=%d after drain, want 5", awaits)
	}
	// Unwindowed gate never awaits.
	free := CreditGate{Await: func() error { t.Fatal("await on unwindowed gate"); return nil }}
	_ = free.Reserve()
	free.Sent()
	if err := free.Drain(); err != nil {
		t.Fatal(err)
	}
}

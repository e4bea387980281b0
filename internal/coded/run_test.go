package coded

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/codec"
	"codedterasort/internal/combin"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// resolved returns the resolved spec of a TeraSort job with the given
// knobs — what a walker test runs its stages under.
func resolved(t testing.TB, s job.Spec) *job.Resolved {
	t.Helper()
	s.Algorithm = job.AlgTeraSort
	r, err := s.Resolve(job.Local{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// bareWorker is rank ep.Rank() of a job under spec with nothing placed or
// mapped: enough to walk a test schedule or run one runtime service.
func bareWorker(ep transport.Endpoint, spec *job.Resolved, hooks Hooks) *worker {
	return &worker{cfg: Config{Hooks: hooks}, spec: spec, ep: ep, rank: ep.Rank(),
		procs: parallel.Resolve(spec.Parallelism)}
}

// walk runs stages on w as the schedule its spec names.
func (w *worker) walk(clock stats.Clock, stages ...stage) error {
	name, _ := w.schedule()
	return w.run(clock, name, stages)
}

// TestScheduleNames: the one switch names the schedule from the job's
// knobs — MemBudget wins over ChunkRows, ChunkRows alone streams, neither
// is monolithic.
func TestScheduleNames(t *testing.T) {
	cases := []struct {
		s    job.Spec
		want string
	}{
		{job.Spec{K: 4}, "monolithic"},
		{job.Spec{K: 4, ChunkRows: 100}, "chunked"},
		{job.Spec{K: 4, MemBudget: 1 << 20}, "spill"},
		{job.Spec{K: 4, ChunkRows: 100, MemBudget: 1 << 20}, "spill"},
	}
	for _, c := range cases {
		if got, _ := (&worker{spec: resolved(t, c.s)}).schedule(); got != c.want {
			t.Errorf("%+v: schedule %q, want %q", c.s, got, c.want)
		}
	}
}

// TestKilledErrorString pins the death diagnostic rendering.
func TestKilledErrorString(t *testing.T) {
	dead := &KilledError{Rank: 3, Stage: stats.StageReduce}
	if !strings.Contains(dead.Error(), "rank 3 killed at Reduce") {
		t.Errorf("KilledError renders %q", dead.Error())
	}
}

// TestRunDrivesStages: a two-rank schedule runs its stages in order,
// charges the breakdown with exactly what it reports to the hooks, skips
// timing for the untimed placement stage, and reports stage errors with
// the rank and column.
func TestRunDrivesStages(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()

	var mu sync.Mutex
	order := map[int][]string{}
	build := func(rank int, failReduce bool) []stage {
		note := func(name string) func() error {
			return func() error {
				mu.Lock()
				order[rank] = append(order[rank], name)
				mu.Unlock()
				if failReduce && name == "Reduce" {
					return errors.New("boom")
				}
				return nil
			}
		}
		return []stage{
			{untimed: true, run: note("Place")},
			{column: stats.StageMap, run: note("Map")},
			{column: stats.StageReduce, run: note("Reduce")},
		}
	}

	var workers [2]*worker
	var events [2][]StageEvent
	errs := [2]error{}
	spec := resolved(t, job.Spec{K: 2})
	run := func(r int, wg *sync.WaitGroup) {
		defer wg.Done()
		hooks := func(ev StageEvent) { events[r] = append(events[r], ev) }
		workers[r] = bareWorker(transport.WithCollectives(mesh.Endpoint(r)), spec, hooks)
		errs[r] = workers[r].walk(stats.NewWallClock(), build(r, r == 0)...)
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

	if errs[0] == nil || !strings.Contains(errs[0].Error(), "coded: rank 0 Reduce stage: boom") {
		t.Fatalf("rank 0 error = %v", errs[0])
	}
	for r := 0; r < 2; r++ {
		want := []string{"Place", "Map", "Reduce"}
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
		if workers[r].result.Times != want {
			t.Fatalf("rank %d breakdown %v, hooks reported %v", r, workers[r].result.Times, want)
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
			stages := []stage{
				{column: stats.StageMap, run: func() error {
					mu.Lock()
					mapDone++
					mu.Unlock()
					return nil
				}},
				{column: stats.StageReduce, run: func() error {
					mu.Lock()
					defer mu.Unlock()
					if mapDone != k {
						return fmt.Errorf("reduce entered with %d/%d maps done", mapDone, k)
					}
					return nil
				}},
			}
			w := bareWorker(transport.WithCollectives(mesh.Endpoint(r)), spec, nil)
			errs[r] = w.walk(stats.NewWallClock(), stages...)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestRunCleanupsLIFO: cleanups run when the run ends, last-registered
// first.
func TestRunCleanupsLIFO(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	var got []string
	w := bareWorker(transport.WithCollectives(mesh.Endpoint(0)), resolved(t, job.Spec{K: 1}), nil)
	if err := w.walk(stats.NewWallClock(), stage{column: stats.StageMap, run: func() error {
		w.cleanups = append(w.cleanups, func() { got = append(got, "a") })
		w.cleanups = append(w.cleanups, func() { got = append(got, "b") })
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[b a]" {
		t.Fatalf("cleanup order %v, want [b a]", got)
	}
}

func TestSpillSorterAndAppend(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	w := bareWorker(transport.WithCollectives(mesh.Endpoint(0)),
		resolved(t, job.Spec{K: 1, MemBudget: 1 << 20, SpillDir: t.TempDir()}), nil)
	if err := w.spillAppend(kv.MakeRecords(0)); err == nil {
		t.Fatal("spillAppend before the sorter exists must error")
	}
	s, err := w.spillSorter()
	if err != nil {
		t.Fatal(err)
	}
	if s2, err := w.spillSorter(); err != nil || s2 != s {
		t.Fatalf("second spillSorter call must return the same sorter (%v)", err)
	}
	if err := w.spillAppend(kv.NewGenerator(1, kv.DistUniform).Generate(0, 10)); err != nil {
		t.Fatal(err)
	}
	// An empty schedule releases the sorter with the run.
	if err := w.walk(stats.NewWallClock()); err != nil {
		t.Fatal(err)
	}
}

func TestInTurnParallel(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	w := bareWorker(transport.WithCollectives(mesh.Endpoint(0)), resolved(t, job.Spec{K: 1, ParallelShuffle: true}), nil)
	ran := false
	if err := w.inTurn(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Parallel schedule did not run the sender")
	}
}

// chunkFeed is rank 0 of a two-member group receiving root 1's chunk
// stream: Bcast hands out the frames in order and Send counts the credits
// returned, noting how many frames were out at each.
type chunkFeed struct {
	transport.Endpoint
	frames [][]byte
	next   int
	acks   []int
}

func (f *chunkFeed) Rank() int { return 0 }

func (f *chunkFeed) Bcast([]int, int, transport.Tag, []byte) ([]byte, error) {
	if f.next >= len(f.frames) {
		return nil, errors.New("stream overran its last chunk")
	}
	f.next++
	return f.frames[f.next-1], nil
}

func (f *chunkFeed) Send(int, transport.Tag, []byte) error {
	f.acks = append(f.acks, f.next)
	return nil
}

// feedWorker is rank 0 of the pair {0, 1} under ChunkRows 4, receiving
// from feed. A two-member group has nothing to cancel: the store is unread.
func feedWorker(t *testing.T, feed *chunkFeed) *worker {
	w := bareWorker(feed, resolved(t, job.Spec{K: 2, ChunkRows: 4}), nil)
	w.store = codec.IVMap{}
	w.myGroups = []placement.Group{{Group: codec.CliqueGroup(combin.NewSet(0, 1))}}
	return w
}

// TestReceiveStream: the receive loop consumes a framed chunk stream to
// its last flag in protocol order (one credit per frame, before its
// decode), hands every decoded chunk to the consumer, and counts chunks.
func TestReceiveStream(t *testing.T) {
	recs := kv.NewGenerator(7, kv.DistUniform).Generate(0, 10)
	feed := &chunkFeed{frames: [][]byte{
		append([]byte(nil), codec.FrameSegmentChunk(0, false, recs.Slice(0, 4))...),
		append([]byte(nil), codec.FrameSegmentChunk(1, false, recs.Slice(4, 7))...),
		append([]byte(nil), codec.FrameSegmentChunk(2, true, recs.Slice(7, 10))...),
	}}
	w := feedWorker(t, feed)
	out := kv.MakeRecords(0)
	if err := w.receiveStream(0, 1, func(r kv.Records) error { out = out.AppendRecords(r); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(feed.acks) != "[1 2 3]" || w.chunksReceived.Load() != 3 {
		t.Fatalf("acks after frames %v, chunks=%d; want [1 2 3] and 3", feed.acks, w.chunksReceived.Load())
	}
	if !out.Equal(recs) {
		t.Fatal("reassembled stream differs from the source records")
	}
}

// TestReceiveStreamWrapsStreamErrors: a framing violation surfaces with
// the group and root named, after the frame's credit went back.
func TestReceiveStreamWrapsStreamErrors(t *testing.T) {
	bad := append([]byte(nil), codec.FrameSegmentChunk(5, true, kv.Records{})...) // wrong seq
	feed := &chunkFeed{frames: [][]byte{bad}}
	err := feedWorker(t, feed).receiveStream(0, 1, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "chunk stream in [0 1] from 1: ") {
		t.Fatalf("stream error not wrapped: %v", err)
	}
	if len(feed.acks) != 1 {
		t.Fatalf("%d credits returned, want the bad frame's one before validation", len(feed.acks))
	}
}

// twoStages is a minimal Map -> Reduce schedule whose bodies record what
// ran.
func twoStages(ran *[]stats.Stage, mu *sync.Mutex) []stage {
	note := func(st stats.Stage) func() error {
		return func() error {
			mu.Lock()
			*ran = append(*ran, st)
			mu.Unlock()
			return nil
		}
	}
	return []stage{{column: stats.StageMap, run: note(stats.StageMap)}, {column: stats.StageReduce, run: note(stats.StageReduce)}}
}

// TestKillFault: the killed rank exits with *KilledError before the faulty
// stage's body, hooks, and barrier; a supervisor closing the mesh unblocks
// the surviving peer with a transport error (the no-hang property).
func TestKillFault(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	var mu sync.Mutex
	var ran [2][]stats.Stage
	var events [2][]StageEvent
	errs := [2]error{}
	var wg0, wg1 sync.WaitGroup
	spec := resolved(t, job.Spec{K: 2, Faults: []job.FaultSpec{{Rank: 1, Stage: "Reduce", Kind: job.FaultKill}}})
	run := func(r int, wg *sync.WaitGroup) {
		defer wg.Done()
		hooks := func(ev StageEvent) { events[r] = append(events[r], ev) }
		w := bareWorker(transport.WithCollectives(mesh.Endpoint(r)), spec, hooks)
		errs[r] = w.walk(stats.NewWallClock(), twoStages(&ran[r], &mu)...)
	}
	wg0.Add(1)
	wg1.Add(1)
	go run(0, &wg0)
	go run(1, &wg1)
	wg1.Wait() // rank 1 dies at Reduce entry
	var killed *KilledError
	if !errors.As(errs[1], &killed) || killed.Rank != 1 || killed.Stage != stats.StageReduce {
		t.Fatalf("rank 1 error = %v, want KilledError at Reduce", errs[1])
	}
	if len(ran[1]) != 1 || ran[1][0] != stats.StageMap {
		t.Fatalf("killed rank ran %v, want [Map] only", ran[1])
	}
	if len(events[1]) != 1 {
		t.Fatalf("dead rank reported %d stage events, want 1 (death reports nothing)", len(events[1]))
	}
	// Rank 0 is stuck at the Reduce barrier; the supervisor's cancel
	// (mesh close) must unblock it rather than leaving it hung.
	mesh.Close()
	wg0.Wait()
	if errs[0] == nil {
		t.Fatal("surviving rank completed despite a dead peer")
	}
}

// TestSlowFault: the straggler's stage completes with its elapsed time
// inflated by the injected stall, visible to the hooks before the barrier.
func TestSlowFault(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	var mu sync.Mutex
	var ran []stats.Stage
	var reduceElapsed time.Duration
	hooks := func(ev StageEvent) {
		if ev.Stage == stats.StageReduce {
			reduceElapsed = ev.Elapsed
		}
	}
	const delay = 30 * time.Millisecond
	spec := resolved(t, job.Spec{K: 1, Faults: []job.FaultSpec{
		// The kill on the same column is listed second: the first wins.
		{Rank: 0, Stage: "Reduce", Kind: job.FaultSlow, Factor: 1, Delay: delay},
		{Rank: 0, Stage: "Sort", Kind: job.FaultKill}}})
	w := bareWorker(transport.WithCollectives(mesh.Endpoint(0)), spec, hooks)
	if err := w.walk(stats.NewWallClock(), twoStages(&ran, &mu)...); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v, want both stages", ran)
	}
	if reduceElapsed < delay {
		t.Fatalf("straggler stall not visible: Reduce elapsed %v < %v", reduceElapsed, delay)
	}
}

// TestFaultOnAbsentColumn: a fault on a column the schedule never runs
// fails the run before its first stage, naming the column and the
// schedule, instead of never firing; another rank's fault is not this
// rank's check.
func TestFaultOnAbsentColumn(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	var mu sync.Mutex
	var ran []stats.Stage
	spec := resolved(t, job.Spec{K: 2, Faults: []job.FaultSpec{
		{Rank: 0, Stage: "Encode", Kind: job.FaultKill},
		{Rank: 1, Stage: "Map", Kind: job.FaultKill}}})
	w := bareWorker(transport.WithCollectives(mesh.Endpoint(0)), spec, nil)
	err := w.walk(stats.NewWallClock(), twoStages(&ran, &mu)...)
	if err == nil || !strings.Contains(err.Error(), "fault at Pack/Encode, a stage the monolithic schedule never runs") {
		t.Fatalf("err = %v, want the absent-column refusal", err)
	}
	if len(ran) != 0 {
		t.Fatalf("ran %v before refusing the fault", ran)
	}
}

// barrierLog is an Endpoint that records the tag of every barrier it
// enters before entering it.
type barrierLog struct {
	transport.Endpoint
	tags []transport.Tag
}

func (b *barrierLog) Barrier(tag transport.Tag) error {
	b.tags = append(b.tags, tag)
	return b.Endpoint.Barrier(tag)
}

// stepClock advances one millisecond per reading, so a stage's charged
// time counts the readings the run takes around it rather than host speed.
type stepClock struct{ now time.Duration }

func (c *stepClock) Now() time.Duration { c.now += time.Millisecond; return c.now }

// scheduleRun is one single-rank run and what it left behind.
type scheduleRun struct {
	w        *worker
	err      error
	ran      []string
	events   []StageEvent
	barriers []stats.Stage
}

// runSchedule runs the named stages on rank 0 of a one-node mesh under
// spec. A stage returns fail[name] when it is set.
func runSchedule(t *testing.T, spec *job.Resolved, clock stats.Clock, fail map[string]error, stages ...namedStage) scheduleRun {
	t.Helper()
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	ep := &barrierLog{Endpoint: transport.WithCollectives(mesh.Endpoint(0))}
	var out scheduleRun
	list := make([]stage, len(stages))
	for i, s := range stages {
		name := s.name
		list[i] = stage{column: s.column, untimed: s.untimed, run: func() error {
			out.ran = append(out.ran, name)
			return fail[name]
		}}
	}
	hooks := func(ev StageEvent) { out.events = append(out.events, ev) }
	out.w = bareWorker(ep, spec, hooks)
	out.err = out.w.walk(clock, list...)
	for _, tag := range ep.tags {
		for st := stats.Stage(0); st < stats.NumStages; st++ {
			if tag == transport.MakeTag(tagBarrier, uint16(st), 0xFFFF) {
				out.barriers = append(out.barriers, st)
			}
		}
	}
	if len(out.barriers) != len(ep.tags) {
		t.Fatalf("barrier tags %v outside the stage barrier namespace", ep.tags)
	}
	return out
}

type namedStage struct {
	name    string
	column  stats.Stage
	untimed bool
}

func timed(name string, st stats.Stage) namedStage { return namedStage{name: name, column: st} }

func untimed(name string, st stats.Stage) namedStage {
	return namedStage{name: name, column: st, untimed: true}
}

// TestRunScheduleRules pins what run does with each kind of list entry:
// untimed setup is neither charged, reported, struck nor barriered and its
// errors pass through; stages sharing a column add up and a fault strikes
// only the first; a fault is refused only for its own rank and only when
// no timed stage carries its column, and the refusal names the schedule.
func TestRunScheduleRules(t *testing.T) {
	mono := resolved(t, job.Spec{K: 1})
	withFaults := func(s job.Spec, f ...job.FaultSpec) *job.Resolved {
		s.Faults = f
		return resolved(t, s)
	}
	sentinel := errors.New("setup failed")

	t.Run("empty schedule", func(t *testing.T) {
		r := runSchedule(t, mono, &stepClock{}, nil)
		if r.err != nil || r.w.result.Times != (stats.Breakdown{}) || len(r.events) != 0 || len(r.barriers) != 0 {
			t.Fatalf("empty schedule: err %v, events %v, barriers %v", r.err, r.events, r.barriers)
		}
	})

	t.Run("untimed stage is not charged, reported or barriered", func(t *testing.T) {
		r := runSchedule(t, mono, &stepClock{}, nil,
			untimed("Place", stats.StageCodeGen), timed("Map", stats.StageMap), untimed("Place2", stats.StageReduce))
		if r.err != nil {
			t.Fatal(r.err)
		}
		if strings.Join(r.ran, " ") != "Place Map Place2" {
			t.Fatalf("ran %v", r.ran)
		}
		var want stats.Breakdown
		want[stats.StageMap] = time.Millisecond
		if r.w.result.Times != want {
			t.Fatalf("breakdown %v, want only Map charged one tick", r.w.result.Times)
		}
		if len(r.events) != 1 || r.events[0].Stage != stats.StageMap {
			t.Fatalf("hook events %+v, want Map only", r.events)
		}
		if len(r.barriers) != 1 || r.barriers[0] != stats.StageMap {
			t.Fatalf("barriers %v, want one after Map", r.barriers)
		}
	})

	t.Run("untimed error passes through unwrapped", func(t *testing.T) {
		r := runSchedule(t, mono, &stepClock{}, map[string]error{"Place": sentinel},
			untimed("Place", stats.StageMap), timed("Map", stats.StageMap))
		if r.err != sentinel {
			t.Fatalf("err = %v, want the setup error itself", r.err)
		}
		if len(r.ran) != 1 || len(r.events) != 0 || len(r.barriers) != 0 {
			t.Fatalf("ran %v, events %v, barriers %v after a failed setup", r.ran, r.events, r.barriers)
		}
	})

	t.Run("failed stage is charged and reported but not barriered", func(t *testing.T) {
		r := runSchedule(t, mono, &stepClock{}, map[string]error{"Reduce": sentinel},
			timed("Map", stats.StageMap), timed("Reduce", stats.StageReduce), timed("Never", stats.StageShuffle))
		if !errors.Is(r.err, sentinel) || !strings.Contains(r.err.Error(), "coded: rank 0 Reduce stage: ") {
			t.Fatalf("err = %v, want the wrapped stage error", r.err)
		}
		if strings.Join(r.ran, " ") != "Map Reduce" {
			t.Fatalf("ran %v, want the schedule to stop at Reduce", r.ran)
		}
		if len(r.events) != 2 || r.events[1].Err == nil || r.w.result.Times[stats.StageReduce] != time.Millisecond {
			t.Fatalf("events %+v, breakdown %v", r.events, r.w.result.Times)
		}
		if len(r.barriers) != 1 || r.barriers[0] != stats.StageMap {
			t.Fatalf("barriers %v, want only Map's", r.barriers)
		}
	})

	t.Run("stages sharing a column add up", func(t *testing.T) {
		r := runSchedule(t, mono, &stepClock{}, nil,
			timed("CodeGen", stats.StageCodeGen), timed("Sample", stats.StageCodeGen), timed("Map", stats.StageMap))
		if r.err != nil {
			t.Fatal(r.err)
		}
		var want stats.Breakdown
		want[stats.StageCodeGen] = 2 * time.Millisecond
		want[stats.StageMap] = time.Millisecond
		if r.w.result.Times != want {
			t.Fatalf("breakdown %v, want %v", r.w.result.Times, want)
		}
		if len(r.events) != 3 || r.events[0].Stage != stats.StageCodeGen || r.events[1].Stage != stats.StageCodeGen {
			t.Fatalf("hook events %+v, want one per stage", r.events)
		}
		if len(r.barriers) != 3 || r.barriers[0] != stats.StageCodeGen || r.barriers[1] != stats.StageCodeGen {
			t.Fatalf("barriers %v, want one after each stage", r.barriers)
		}
	})

	t.Run("fault strikes the first stage of a shared column only", func(t *testing.T) {
		const delay = 40 * time.Millisecond
		spec := withFaults(job.Spec{K: 1}, job.FaultSpec{Rank: 0, Stage: "CodeGen", Kind: job.FaultSlow, Factor: 1, Delay: delay})
		r := runSchedule(t, spec, stats.NewWallClock(), nil,
			timed("CodeGen", stats.StageCodeGen), timed("Sample", stats.StageCodeGen))
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.events) != 2 || r.events[0].Elapsed < delay || r.events[1].Elapsed >= delay {
			t.Fatalf("events %+v, want only the first CodeGen stage stalled by %v", r.events, delay)
		}
	})

	t.Run("kill on a shared column stops before its first stage", func(t *testing.T) {
		spec := withFaults(job.Spec{K: 1}, job.FaultSpec{Rank: 0, Stage: "CodeGen", Kind: job.FaultKill})
		r := runSchedule(t, spec, &stepClock{}, nil,
			timed("Map", stats.StageMap), timed("CodeGen", stats.StageCodeGen), timed("Sample", stats.StageCodeGen))
		var killed *KilledError
		if !errors.As(r.err, &killed) || killed.Stage != stats.StageCodeGen {
			t.Fatalf("err = %v, want a kill at CodeGen", r.err)
		}
		if strings.Join(r.ran, " ") != "Map" || len(r.barriers) != 1 {
			t.Fatalf("ran %v, barriers %v, want Map alone", r.ran, r.barriers)
		}
	})

	t.Run("fault on a column only untimed setup carries is refused", func(t *testing.T) {
		spec := withFaults(job.Spec{K: 1}, job.FaultSpec{Rank: 0, Stage: "Map", Kind: job.FaultKill})
		r := runSchedule(t, spec, &stepClock{}, nil,
			untimed("Place", stats.StageMap), timed("Reduce", stats.StageReduce))
		if r.err == nil || !strings.Contains(r.err.Error(), "kill fault at Map, a stage the monolithic schedule never runs") {
			t.Fatalf("err = %v, want the absent-column refusal", r.err)
		}
		if len(r.ran) != 0 {
			t.Fatalf("ran %v before refusing", r.ran)
		}
	})

	t.Run("another rank's absent-column fault is not refused", func(t *testing.T) {
		spec := withFaults(job.Spec{K: 2}, job.FaultSpec{Rank: 1, Stage: "Encode", Kind: job.FaultKill})
		r := runSchedule(t, spec, &stepClock{}, nil, timed("Map", stats.StageMap))
		if r.err != nil || strings.Join(r.ran, " ") != "Map" {
			t.Fatalf("err %v, ran %v: rank 0 refused rank 1's fault", r.err, r.ran)
		}
	})

	for _, c := range []struct {
		mode string
		spec job.Spec
	}{
		{"monolithic", job.Spec{K: 1}},
		{"chunked", job.Spec{K: 1, ChunkRows: 64}},
		{"spill", job.Spec{K: 1, MemBudget: 1 << 20}},
	} {
		t.Run("refusal names the "+c.mode+" mode", func(t *testing.T) {
			spec := withFaults(c.spec, job.FaultSpec{Rank: 0, Stage: "Decode", Kind: job.FaultSlow, Delay: time.Millisecond})
			r := runSchedule(t, spec, &stepClock{}, nil, timed("Map", stats.StageMap))
			want := "rank 0 slow fault at Unpack/Decode, a stage the " + c.mode + " schedule never runs"
			if r.err == nil || !strings.Contains(r.err.Error(), want) {
				t.Fatalf("err = %v, want %q", r.err, want)
			}
		})
	}
}

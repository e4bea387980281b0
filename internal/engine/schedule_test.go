package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"codedterasort/internal/job"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

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
// time counts the readings Run takes around it rather than host speed.
type stepClock struct{ now time.Duration }

func (c *stepClock) Now() time.Duration { c.now += time.Millisecond; return c.now }

// scheduleRun is one single-rank Run and what it left behind.
type scheduleRun struct {
	ctx      *Context
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
	list := make([]Stage, len(stages))
	for i, s := range stages {
		name := s.name
		list[i] = Stage{Column: s.column, Untimed: s.untimed, Run: func(*Context) error {
			out.ran = append(out.ran, name)
			return fail[name]
		}}
	}
	hooks := func(ev StageEvent) { out.events = append(out.events, ev) }
	out.ctx, out.err = Run(ep, list, barrierNS, spec, clock, hooks)
	for _, tag := range ep.tags {
		for st := stats.Stage(0); st < stats.NumStages; st++ {
			if tag == transport.MakeTag(barrierNS, uint16(st), 0xFFFF) {
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

// TestRunScheduleRules pins what Run does with each kind of list entry:
// untimed setup is neither charged, reported, struck nor barriered and its
// errors pass through; stages sharing a column add up and a fault strikes
// only the first; a fault is refused only for its own rank and only when
// no timed stage carries its column, and the refusal names the mode.
func TestRunScheduleRules(t *testing.T) {
	mono := resolved(t, job.Spec{K: 1})
	withFaults := func(s job.Spec, f ...job.FaultSpec) *job.Resolved {
		s.Faults = f
		return resolved(t, s)
	}
	sentinel := errors.New("setup failed")

	t.Run("empty schedule", func(t *testing.T) {
		r := runSchedule(t, mono, &stepClock{}, nil)
		if r.err != nil || r.ctx == nil || r.ctx.Times != (stats.Breakdown{}) || len(r.events) != 0 || len(r.barriers) != 0 {
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
		if r.ctx.Times != want {
			t.Fatalf("breakdown %v, want only Map charged one tick", r.ctx.Times)
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
		if !errors.Is(r.err, sentinel) || !strings.Contains(r.err.Error(), "engine: rank 0 Reduce stage: ") {
			t.Fatalf("err = %v, want the wrapped stage error", r.err)
		}
		if strings.Join(r.ran, " ") != "Map Reduce" {
			t.Fatalf("ran %v, want the schedule to stop at Reduce", r.ran)
		}
		if len(r.events) != 2 || r.events[1].Err == nil || r.ctx.Times[stats.StageReduce] != time.Millisecond {
			t.Fatalf("events %+v, breakdown %v", r.events, r.ctx.Times)
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
		if r.ctx.Times != want {
			t.Fatalf("breakdown %v, want %v", r.ctx.Times, want)
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

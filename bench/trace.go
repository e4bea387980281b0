package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded by the benchmark around
// its calls into the layers — nothing inside the program emits them — kept
// in memory, and written out when the run ends.
type span struct {
	ID     int `json:"id"`
	Parent int `json:"parent"` // 0 = a root span
	// Iter is the traced iteration the span belongs to: every span of one
	// job shares it.
	Iter int    `json:"iter"`
	Name string `json:"name"`
	// Lane is the timeline row the span is drawn on: "caller" for what the
	// benchmark itself waits on, "rank N" for an engine rank.
	Lane  string         `json:"lane"`
	Start time.Duration  `json:"start_ns"` // since process start
	End   time.Duration  `json:"end_ns"`
	Args  map[string]any `json:"args,omitempty"`
}

// tracer collects spans from the benchmark goroutine and from the stage
// callbacks, which run on the engine's rank goroutines.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its id for children to name as parent.
func (t *tracer) add(parent, iter int, name, lane string, start, end time.Time, args map[string]any) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Iter: iter, Name: name, Lane: lane,
		Start: start.Sub(processStart), End: end.Sub(processStart), Args: args,
	})
	return id
}

// setEnd closes a span that was recorded open so its children could name
// it as parent.
func (t *tracer) setEnd(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(processStart)
}

// selfRow is one line of the self-time table: every span of one name.
type selfRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Busy  float64 `json:"busy_s"` // summed durations
	Self  float64 `json:"self_s"` // wall clock attributed to the name
}

// selfTimes attributes every instant of each root span to the deepest
// spans covering it: a span's self time is its duration minus the part its
// children cover. Where several children run at once (the K ranks of one
// stage) they share the instant equally, so the self times under a root
// always sum to the root's duration — the check that no interval was lost
// or counted twice. Children are clipped to their parent.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]*span, len(spans))
	kids := map[int][]int{}
	clipped := append([]span(nil), spans...)
	for i := range clipped {
		byID[clipped[i].ID] = &clipped[i]
	}
	// Spans are recorded parent-first or child-first depending on the
	// source, so clip in depth order, roots down.
	depth := func(s *span) int {
		d := 0
		for p := s.Parent; p != 0; p = byID[p].Parent {
			d++
		}
		return d
	}
	order := make([]*span, 0, len(clipped))
	for i := range clipped {
		order = append(order, &clipped[i])
	}
	sort.SliceStable(order, func(i, j int) bool { return depth(order[i]) < depth(order[j]) })
	for _, s := range order {
		if s.Parent != 0 {
			p := byID[s.Parent]
			s.Start = min(max(s.Start, p.Start), p.End)
			s.End = min(max(s.End, s.Start), p.End)
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}

	self := make(map[int]time.Duration, len(spans))
	var walk func(id int, lo, hi time.Duration) []int
	// walk returns the deepest spans under id that cover [lo, hi).
	walk = func(id int, lo, hi time.Duration) []int {
		var deepest []int
		for _, k := range kids[id] {
			if c := byID[k]; c.Start <= lo && c.End >= hi {
				deepest = append(deepest, walk(k, lo, hi)...)
			}
		}
		if deepest == nil {
			return []int{id}
		}
		return deepest
	}
	var cuts func(id int, into *[]time.Duration)
	cuts = func(id int, into *[]time.Duration) {
		s := byID[id]
		*into = append(*into, s.Start, s.End)
		for _, k := range kids[id] {
			cuts(k, into)
		}
	}
	for _, s := range order {
		if s.Parent != 0 {
			continue
		}
		var ts []time.Duration
		cuts(s.ID, &ts)
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for i := 1; i < len(ts); i++ {
			lo, hi := ts[i-1], ts[i]
			if hi == lo {
				continue
			}
			owners := walk(s.ID, lo, hi)
			share := (hi - lo) / time.Duration(len(owners))
			for _, o := range owners {
				self[o] += share
			}
			// The division remainder stays with the first owner so the
			// sum is exact.
			self[owners[0]] += (hi - lo) - share*time.Duration(len(owners))
		}
	}
	return self
}

// selfTable groups the self times by span name, in first-seen order.
func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []selfRow
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(rows)
			idx[s.Name] = i
			rows = append(rows, selfRow{Name: s.Name})
		}
		rows[i].Count++
		rows[i].Busy += (s.End - s.Start).Seconds()
		rows[i].Self += self[s.ID].Seconds()
	}
	return rows
}

// chromeEvent is one entry of the Chrome trace-event format (complete
// events, "ph":"X", and thread-name metadata, "ph":"M"), which
// chrome://tracing and ui.perfetto.dev load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as a Chrome trace, one thread per lane.
func writeChromeTrace(path string, spans []span) error {
	lanes := map[string]int{}
	var events []chromeEvent
	for _, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "iter": s.Iter}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Lane, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: tid, Args: args,
		})
	}
	for lane, tid := range lanes {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": lane},
		})
	}
	p, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, p, 0o644)
}

package coded

import (
	"errors"
	"sync"

	"codedterasort/internal/kv"
)

// errHalted is what a reducer stopped before it finished returns.
var errHalted = errors.New("coded: reducer halted")

// reducer is the in-memory Reduce of one rank (Section IV-F), run beside
// the Shuffle instead of after it: it orders partition `rank` as its parts
// arrive, and holds the only reference to them. Each time it looks, it
// orders whatever has arrived since its last look as one sorted run of
// references (kv.Order.AddRun), so that work overlaps the wire. A capped
// Shuffle hands it a part per packet segment, and so over a hundred looks,
// where an uncapped one hands it 2-4: past a few runs the order merges its
// newest runs as they come and, whenever the rows added since it last
// compacted reach half the compacted ones, gathers everything so far into
// one sorted buffer of its own, letting go of the parts that buffer
// replaces. Once every part is in, it merges the few runs left and gathers
// the output, reduceBlockRows at a time into the OutputSink, even while the
// rank is still sending; the Reduce stage only joins it.
//
// The parts may come in any order: the output is the order of their
// records (see kv.Order). A reducer gathers nothing into the sink until
// every part is in, and feeds the sink no further block once halted, so a
// failed run never hands its sink more than a prefix of the whole
// partition.
type reducer struct {
	procs int
	sink  func(kv.Records) error

	mu      sync.Mutex
	arrived []kv.View // the parts in since the last look
	last    bool      // every part is in

	wake   chan struct{} // a look is due; buffered, so add never blocks
	stop   chan struct{} // closed by halt
	exited chan struct{} // closed when the goroutine returns

	// Set when exited is closed.
	rows   int
	output kv.Records
	err    error
}

// startReducer starts the reducer of a partition whose first parts are
// parts; add appends the others as they arrive. rows is room to reserve
// for the whole partition's references (an estimate: the order grows past
// it). The reducer is halted and joined when the run ends, whichever way it
// ends.
func (w *worker) startReducer(parts []kv.View, rows int) *reducer {
	r := &reducer{procs: w.procs, sink: w.cfg.OutputSink, arrived: parts,
		wake: make(chan struct{}, 1), stop: make(chan struct{}), exited: make(chan struct{})}
	w.reducer = r
	w.cleanups = append(w.cleanups, r.halt)
	go r.run(rows)
	r.signal()
	return r
}

// add hands over the next part. Safe to call from any goroutine.
func (r *reducer) add(v kv.View) {
	r.mu.Lock()
	r.arrived = append(r.arrived, v)
	r.mu.Unlock()
	r.signal()
}

// finish says every part is in.
func (r *reducer) finish() {
	r.mu.Lock()
	r.last = true
	r.mu.Unlock()
	r.signal()
}

func (r *reducer) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// halt stops the reducer, if it still runs, and waits for it to return.
func (r *reducer) halt() {
	close(r.stop)
	<-r.exited
}

// join waits for the reducer to return and reports its outcome.
func (r *reducer) join() (rows int, output kv.Records, err error) {
	<-r.exited
	return r.rows, r.output, r.err
}

// run orders the parts as they come.
func (r *reducer) run(reserve int) {
	defer close(r.exited)
	var order kv.Order
	order.Grow(reserve)
	// Each look takes the parts in since the last one as a batch, so the
	// receivers go on adding while the reducer orders it.
	var batch []kv.View
	for last := false; !last; {
		select {
		case <-r.wake:
		case <-r.stop:
			r.err = errHalted
			return
		}
		r.mu.Lock()
		batch, r.arrived = r.arrived, batch[:0]
		last = r.last
		r.mu.Unlock()
		order.AddRun(r.procs, batch...)
		clear(batch)
	}
	order.Merge()
	r.rows = order.Len()
	if r.sink == nil {
		r.output = order.Gather(kv.MakeRecords(order.Len()), 0, order.Len())
		return
	}
	r.err = order.GatherBlocks(reduceBlockRows, func(block kv.Records) error {
		select {
		case <-r.stop:
			return errHalted
		default:
		}
		return r.sink(block)
	})
}

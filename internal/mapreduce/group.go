package mapreduce

import (
	"bytes"
	"sort"

	"codedterasort/internal/kv"
)

// grouper is the streaming group-reduce driver: it consumes the engine's
// sorted reduce stream (whole partition in one block in-memory, ascending
// merge blocks out-of-core) through the OutputSink hook, detects key-group
// boundaries — groups may span block boundaries — and invokes the Reducer
// once per group with the group's values in canonical ascending order.
// Blocks are copied as they arrive (the engines reuse the sink buffer), but
// only the current group is ever held, so the driver adds O(group) memory,
// not O(partition).
type grouper struct {
	reduce Reducer
	cur    kv.Records // records of the current (open) key group
	key    [kv.KeySize]byte
	open   bool
	out    kv.Records
}

// newGrouper returns a driver for the given reducer.
func newGrouper(r Reducer) *grouper {
	return &grouper{reduce: r}
}

// Feed consumes one ascending block of sorted intermediate records. It is
// the engines' OutputSink; it never fails (the signature carries the
// sink's error contract).
func (g *grouper) Feed(block kv.Records) error {
	for i := 0; i < block.Len(); i++ {
		k := block.Key(i)
		if !g.open || !bytes.Equal(k, g.key[:]) {
			g.closeGroup()
			copy(g.key[:], k)
			g.open = true
		}
		g.cur = g.cur.Append(block.Record(i))
	}
	return nil
}

// closeGroup canonicalizes and reduces the open group, if any.
func (g *grouper) closeGroup() {
	if !g.open {
		return
	}
	// Canonical within-group order: ascending full records. Keys are equal
	// here, so this orders the values — the determinism contract that makes
	// reduced output byte-identical across engines, modes and recoveries.
	sort.Sort(fullRecordOrder{g.cur})
	values := make([][]byte, g.cur.Len())
	for i := range values {
		values[i] = g.cur.Value(i)
	}
	g.reduce.Reduce(g.key[:], values, g.emit)
	g.cur = kv.Records{}
	g.open = false
}

// emit appends one reducer output record.
func (g *grouper) emit(key, value []byte) {
	g.out = g.out.Append(MakeRecord(key, value))
}

// finish closes the trailing group and returns the reduced output.
func (g *grouper) finish() kv.Records {
	g.closeGroup()
	return g.out
}

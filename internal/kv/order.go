package kv

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"

	"codedterasort/internal/parallel"
)

// ref is one record's sort reference, 16 bytes: the first eight key bytes
// as one big-endian word — enough to decide every comparison between
// distinct TeraGen keys, and exactly eight radix digits — plus where the
// record lies: its view and its row in the view's buffer. Sorting moves
// references; each 100-byte record is touched once, by Gather, and a few
// times more in an order that compacts (see settle).
type ref struct {
	prefix    uint64
	part, row uint32
}

// Order is the sorted order of the records of any number of views, which
// are not concatenated. It is the one output order of the system — of
// Reduce in every mode, of run generation and the spill merge, and of
// Records.Sort, the oracle: records ascend as 100-byte strings, by key and
// equal keys by value. Records that tie are identical, so the order is a
// function of the records alone, whatever views hold them, in whatever
// order they are added and on however many goroutines. The zero value is
// ready to use, and an Order reused across Sort calls keeps its reference
// arrays.
//
// An Order can also be built a run at a time, for parts that arrive in
// batches: AddRun orders the records of some parts as one sorted run, and
// Merge merges the runs into the order one run over all parts gives. An
// order of many runs keeps itself cheap to finish (see settle): past
// settleRuns runs it merges its newest runs as they come and, now and
// then, gathers everything so far into one buffer of its own.
type Order struct {
	parts         []View
	refs, scratch []ref
	runs          []int // the end of each sorted run in refs
	fresh         int   // the first part of the run being added
	procs         int
	added         int // the runs AddRun has added since the last Sort
	// compactedRows is the length of parts[0] once the order has compacted
	// (see compact), else 0.
	compactedRows int
}

const (
	// settleRuns is the number of runs an order takes as they come, before
	// settle begins: an uncapped Shuffle hands a reducer 2-4 runs, a capped
	// one over a hundred.
	settleRuns = 8
	// insertionMaxRefs is the size up to which references are ordered by
	// insertion: below it the radix's histogram bookkeeping costs more than
	// the quadratic moves.
	insertionMaxRefs = 32
	// parallelMinRows is the size below which sharding an ordering or a
	// gather over goroutines costs more than it saves.
	parallelMinRows = 1 << 12
)

// Sort orders the records of whole buffers, forgetting any earlier input:
// one run over a view of each.
func (o *Order) Sort(procs int, parts ...Records) {
	o.reset()
	n := 0
	for _, p := range parts {
		n += p.Len()
	}
	o.Grow(n)
	for _, p := range parts {
		o.place(ViewAll(p))
	}
	o.sortRun(procs, 0)
}

// AddRun orders the records of views, parts new to the order, as one more
// sorted run, on up to procs goroutines: row ranges shard the reference
// extraction, top-digit buckets shard the radix. A run of no records adds
// nothing; on a zero Order, one run is the whole order.
func (o *Order) AddRun(procs int, views ...View) {
	n := 0
	for _, v := range views {
		n += v.Len()
	}
	if n == 0 {
		return
	}
	start := len(o.refs)
	o.Grow(n)
	o.fresh = len(o.parts)
	for _, v := range views {
		o.place(v)
	}
	o.sortRun(procs, start)
	if o.added++; o.added > settleRuns {
		o.settle()
	}
}

// settle keeps an order of many runs cheap to finish. Once the rows added
// since the last compaction reach half the compacted ones, it compacts;
// otherwise it merges the two newest runs while the older is at most twice
// the newer, so the run lengths at least double from newest to oldest and
// a few runs are left to merge at the end.
func (o *Order) settle() {
	if 2*(len(o.refs)-o.compactedRows) >= o.compactedRows {
		o.compact()
		return
	}
	for n := len(o.runs); n > 1 && o.runLen(n-2) <= 2*o.runLen(n-1); n = len(o.runs) {
		lo := 0
		if n > 2 {
			lo = o.runs[n-3]
		}
		mid, hi := o.runs[n-2], o.runs[n-1]
		o.merge2(o.scratch[lo:hi], o.refs[lo:mid], o.refs[mid:hi])
		copy(o.refs[lo:hi], o.scratch[lo:hi])
		o.runs[n-2] = hi
		o.runs = o.runs[:n-1]
	}
}

// runLen returns the length of run i.
func (o *Order) runLen(i int) int {
	if i == 0 {
		return o.runs[0]
	}
	return o.runs[i] - o.runs[i-1]
}

// compact merges every run and gathers the records into one buffer, which
// becomes the order's only part. The views it replaces are dropped.
func (o *Order) compact() {
	o.Merge()
	buf := o.Gather(Records{}, 0, len(o.refs))
	for i := range o.refs {
		o.refs[i].part, o.refs[i].row = 0, uint32(i)
	}
	clear(o.parts)
	o.parts = append(o.parts[:0], ViewAll(buf))
	o.compactedRows = len(o.refs)
}

// Grow makes room for n more references, so runs of up to that many
// records in all add without reallocating.
func (o *Order) Grow(n int) {
	o.refs = slices.Grow(o.refs, n)
	if cap(o.scratch) < cap(o.refs) {
		o.scratch = make([]ref, len(o.scratch), cap(o.refs))
	}
}

func (o *Order) reset() {
	clear(o.parts)
	o.parts, o.refs, o.runs = o.parts[:0], o.refs[:0], o.runs[:0]
	o.fresh, o.added, o.compactedRows = 0, 0, 0
}

// place makes v the next part of the run being added, and takes a
// reference slot for each of its records, for extract to fill. The slots
// must be there.
func (o *Order) place(v View) {
	o.parts = append(o.parts, v)
	o.refs = o.refs[:len(o.refs)+v.Len()]
}

// sortRun orders refs[start:], the references of the parts just placed, as
// one run.
func (o *Order) sortRun(procs, start int) {
	n := len(o.refs) - start
	o.scratch = o.scratch[:len(o.refs)]
	refs, scratch := o.refs[start:], o.scratch[start:]
	o.procs = procs
	if n < parallelMinRows {
		procs = 1
	}
	o.runs = append(o.runs, len(o.refs))

	// Extraction; the bits on which any two prefixes differ fall out of it.
	shards := parallel.Shards(procs, n)
	masks := make([][2]uint64, shards)
	parallel.ForShards(procs, n, func(s, lo, hi int) error {
		masks[s] = o.extract(start, lo, hi)
		return nil
	})
	and, or := ^uint64(0), uint64(0)
	for _, m := range masks {
		and, or = and&m[0], or|m[1]
	}
	// The first digit that discriminates; -8 when all prefixes are equal.
	shift := 56 - bits.LeadingZeros64(and^or)&^7
	if shards == 1 || shift < 0 {
		o.sortRecords(refs, scratch, shift)
		return
	}

	// Scatter on that digit, then every bucket is an independent ordering
	// problem.
	counts := make([][256]int, shards)
	parallel.ForShards(procs, n, func(s, lo, hi int) error {
		c := &counts[s]
		for _, r := range refs[lo:hi] {
			c[byte(r.prefix>>shift)]++
		}
		return nil
	})
	var bounds [257]int
	off := 0
	for b := 0; b < 256; b++ {
		bounds[b] = off
		for s := range counts {
			off, counts[s][b] = off+counts[s][b], off
		}
	}
	bounds[256] = n
	parallel.ForShards(procs, n, func(s, lo, hi int) error {
		c := &counts[s]
		for _, r := range refs[lo:hi] {
			b := byte(r.prefix >> shift)
			scratch[c[b]] = r
			c[b]++
		}
		return nil
	})
	parallel.Do(procs, 256, func(b int) error {
		o.sortRecords(scratch[bounds[b]:bounds[b+1]], refs[bounds[b]:bounds[b+1]], shift-8)
		return nil
	})
	if start == 0 {
		o.refs, o.scratch = o.scratch, o.refs
	} else {
		copy(refs, scratch)
	}
}

// extract builds the references of the run's rows [lo, hi) — the rows of
// its parts back to back, from refs[start] — and returns the AND and the OR
// of their prefixes.
func (o *Order) extract(start, lo, hi int) [2]uint64 {
	and, or := ^uint64(0), uint64(0)
	base := start
	for p := o.fresh; p < len(o.parts); p++ {
		v := o.parts[p]
		n := v.Len()
		for i := max(start+lo-base, 0); i < min(start+hi-base, n); i++ {
			row := v.row(i)
			prefix := binary.BigEndian.Uint64(v.recs.buf[row*RecordSize:])
			and, or = and&prefix, or|prefix
			o.refs[base+i] = ref{prefix, uint32(p), uint32(row)}
		}
		base += n
	}
	return [2]uint64{and, or}
}

// sortRecords orders a, whose references agree above prefix digit shift
// (negative: on the whole prefix), by whole record: by prefix, then every
// stretch of equal prefixes — rare unless keys repeat — by the bytes after
// it (see sortTies). tmp is scratch of the same length.
func (o *Order) sortRecords(a, tmp []ref, shift int) {
	if shift >= 0 {
		sortRefs(a, tmp, uint(shift))
	}
	o.sortTies(a, tmp, 8)
}

// sortTies orders every stretch of a that ties on the prefix field —
// records that agree on their first off bytes — by the rest: the next
// eight bytes, fetched into the prefix field, then, within a stretch that
// ties on those, the eight after. Each stretch gets its prefix field back,
// so a merge can still compare on it. Past key bytes 8-9, only records
// with equal keys get this far.
func (o *Order) sortTies(a, tmp []ref, off int) {
	for i := 0; i < len(a); {
		j := i + 1
		for j < len(a) && a[j].prefix == a[i].prefix {
			j++
		}
		if j-i > 1 && off < RecordSize {
			prefix := a[i].prefix
			for k := i; k < j; k++ {
				a[k].prefix = o.word(a[k], off)
			}
			sortRefs(a[i:j], tmp[i:j], 56)
			o.sortTies(a[i:j], tmp[i:j], off+8)
			for k := i; k < j; k++ {
				a[k].prefix = prefix
			}
		}
		i = j
	}
}

// record returns r's record.
func (o *Order) record(r ref) []byte {
	at := int(r.row) * RecordSize
	return o.parts[r.part].recs.buf[at : at+RecordSize]
}

// word returns bytes [off, off+8) of r's record as one big-endian word,
// zero past the record's end.
func (o *Order) word(r ref, off int) uint64 {
	rec := o.record(r)
	if off+8 <= RecordSize {
		return binary.BigEndian.Uint64(rec[off:])
	}
	var w [8]byte
	copy(w[:], rec[off:])
	return binary.BigEndian.Uint64(w[:])
}

// tieBefore reports whether a's record precedes b's when their prefixes
// are equal.
func (o *Order) tieBefore(a, b ref) bool {
	return bytes.Compare(o.record(a)[8:], o.record(b)[8:]) < 0
}

// Merge merges the runs AddRun ordered into the one order of all their
// parts: adjacent runs merge pairwise, pass after pass, each comparison
// decided by the prefix unless it ties. It must come between the last
// AddRun of more than one run and a Gather.
func (o *Order) Merge() {
	for len(o.runs) > 1 {
		src, dst := o.refs, o.scratch[:len(o.refs)]
		lo, merged := 0, 0
		for i := 0; i < len(o.runs); i += 2 {
			end := o.runs[min(i+1, len(o.runs)-1)]
			if i+1 < len(o.runs) {
				o.merge2(dst[lo:end], src[lo:o.runs[i]], src[o.runs[i]:end])
			} else {
				copy(dst[lo:end], src[lo:end])
			}
			o.runs[merged] = end
			merged++
			lo = end
		}
		o.runs = o.runs[:merged]
		o.refs, o.scratch = dst, src
	}
}

// merge2 merges the sorted runs a and b into dst.
func (o *Order) merge2(dst, a, b []ref) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if y.prefix < x.prefix || y.prefix == x.prefix && o.tieBefore(y, x) {
			dst[k] = y
			j++
		} else {
			dst[k] = x
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// sortRefs stably sorts a by the prefix bits at and below digit shift,
// leaving the result in a: by insertion when small, else by MSD radix — a
// 16-byte scatter pass into tmp and back on the digit, then every bucket on
// the digits below it. A digit the references share is never scattered on:
// the same pass that histograms a digit finds the bits on which any two
// prefixes differ.
func sortRefs(a, tmp []ref, shift uint) {
	for len(a) > insertionMaxRefs {
		var counts [256]int
		and, or := ^uint64(0), uint64(0)
		for _, r := range a {
			counts[byte(r.prefix>>shift)]++
			and, or = and&r.prefix, or|r.prefix
		}
		diff := (and ^ or) & (1<<(shift+8) - 1)
		if diff == 0 {
			return
		}
		if top := uint(56 - bits.LeadingZeros64(diff)&^7); top != shift {
			shift = top
			continue
		}
		off := 0
		for b, c := range counts {
			off, counts[b] = off+c, off
		}
		for _, r := range a {
			b := byte(r.prefix >> shift)
			tmp[counts[b]] = r
			counts[b]++
		}
		copy(a, tmp)
		if shift == 0 {
			return
		}
		lo := 0
		for _, hi := range counts {
			if hi-lo > 1 {
				sortRefs(a[lo:hi], tmp[lo:hi], shift-8)
			}
			lo = hi
		}
		return
	}
	for i := 1; i < len(a); i++ {
		r := a[i]
		j := i
		for ; j > 0 && a[j-1].prefix > r.prefix; j-- {
			a[j] = a[j-1]
		}
		a[j] = r
	}
}

// Len returns the number of records ordered.
func (o *Order) Len() int { return len(o.refs) }

// Gather appends the sorted records [from, to) to dst — the one time a
// record is copied — and returns the extended buffer.
func (o *Order) Gather(dst Records, from, to int) Records {
	n := to - from
	at := len(dst.buf)
	dst.buf = slices.Grow(dst.buf, n*RecordSize)[:at+n*RecordSize]
	procs := o.procs
	if n < parallelMinRows {
		procs = 1
	}
	parallel.ForShards(procs, n, func(_, lo, hi int) error {
		out := dst.buf[at+lo*RecordSize:]
		for _, r := range o.refs[from+lo : from+hi] {
			copy(out[:RecordSize], o.parts[r.part].recs.buf[int(r.row)*RecordSize:])
			out = out[RecordSize:]
		}
		return nil
	})
	return dst
}

// GatherBlocks hands the sorted records to fn in order, blockRows at a
// time, each block gathered into one buffer reused for every block, so the
// sorted records are never resident together. fn must not retain its
// block. It returns fn's first error.
func (o *Order) GatherBlocks(blockRows int, fn func(Records) error) error {
	block := MakeRecords(min(blockRows, o.Len()))
	for from := 0; from < o.Len(); from += blockRows {
		block = o.Gather(Records{buf: block.buf[:0]}, from, min(from+blockRows, o.Len()))
		if err := fn(block); err != nil {
			return err
		}
	}
	return nil
}

// Permute moves the records of the one buffer ordered into sorted order in
// place, following the permutation's cycles: one copy per record and no
// record-sized scratch. It consumes the order.
func (o *Order) Permute() {
	if len(o.parts) != 1 || o.parts[0].listed {
		panic("kv: Permute on an order of other than one whole buffer")
	}
	rec := o.parts[0].recs.Record
	var held [RecordSize]byte
	for i := range o.refs {
		// refs[j].row is the row that belongs at j; it is set to j once
		// the record is there.
		src := int(o.refs[i].row)
		if src == i {
			continue
		}
		copy(held[:], rec(i))
		j := i
		for src != i {
			copy(rec(j), rec(src))
			o.refs[j].row = uint32(j)
			j, src = src, int(o.refs[src].row)
		}
		copy(rec(j), held[:])
		o.refs[j].row = uint32(j)
	}
}

// SortRadixMSD sorts the records in place by key. It is the name
// bench/probe_kv.go calls; the product orders and gathers.
func (r Records) SortRadixMSD(procs int) {
	var o Order
	o.Sort(procs, r)
	o.Permute()
}

package kv

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"codedterasort/internal/parallel"
)

// ref is one record's sort reference, 16 bytes: the first eight key bytes
// as one big-endian word — enough to decide every comparison between
// distinct TeraGen keys, and exactly eight radix digits — plus where the
// record lies: its view and its row in the view's buffer. Sorting moves
// references; each 100-byte record is touched once, by Gather.
type ref struct {
	prefix    uint64
	part, row uint32
}

// Order is the sorted order of the records of any number of views, which
// are never concatenated: the total order by full key, equal keys in input
// position (views in argument order, then view order — rows ascending).
// That order is unique, so it does not depend on the goroutine budget. The
// zero value is ready to use, and an Order reused across Sort calls keeps
// its reference arrays.
type Order struct {
	parts         []View
	refs, scratch []ref
	procs         int
}

const (
	// insertionMaxRefs is the size up to which references are ordered by
	// insertion: below it the radix's histogram bookkeeping costs more than
	// the quadratic moves.
	insertionMaxRefs = 32
	// parallelMinRows is the size below which sharding an ordering or a
	// gather over goroutines costs more than it saves.
	parallelMinRows = 1 << 12
)

// Sort orders the records of whole buffers: SortViews over a view of each.
func (o *Order) Sort(procs int, parts ...Records) {
	o.parts = o.parts[:0]
	for _, p := range parts {
		o.parts = append(o.parts, ViewAll(p))
	}
	o.sort(procs)
}

// SortViews orders the records of views on up to procs goroutines: row
// ranges shard the reference extraction, top-digit buckets shard the radix.
func (o *Order) SortViews(procs int, views ...View) {
	o.parts = append(o.parts[:0], views...)
	o.sort(procs)
}

func (o *Order) sort(procs int) {
	n := 0
	for _, p := range o.parts {
		n += p.Len()
	}
	o.refs = slices.Grow(o.refs[:0], n)[:n]
	o.scratch = slices.Grow(o.scratch[:0], n)[:n]
	if n < parallelMinRows {
		procs = 1
	}
	o.procs = procs

	// Extraction; the bits on which any two prefixes differ fall out of it.
	shards := parallel.Shards(procs, n)
	masks := make([][2]uint64, shards)
	parallel.ForShards(procs, n, func(s, lo, hi int) error {
		masks[s] = o.extract(lo, hi)
		return nil
	})
	and, or := ^uint64(0), uint64(0)
	for _, m := range masks {
		and, or = and&m[0], or|m[1]
	}
	// The first digit that discriminates; -8 when all prefixes are equal.
	shift := 56 - bits.LeadingZeros64(and^or)&^7
	if shards == 1 || shift < 0 {
		o.sortRun(o.refs, o.scratch, shift)
		return
	}

	// Stable scatter on that digit — bucket-major, shard-minor, so a bucket
	// keeps input order — then every bucket is an independent ordering
	// problem.
	counts := make([][256]int, shards)
	parallel.ForShards(procs, n, func(s, lo, hi int) error {
		c := &counts[s]
		for _, r := range o.refs[lo:hi] {
			c[byte(r.prefix>>shift)]++
		}
		return nil
	})
	var start [257]int
	off := 0
	for b := 0; b < 256; b++ {
		start[b] = off
		for s := range counts {
			off, counts[s][b] = off+counts[s][b], off
		}
	}
	start[256] = n
	parallel.ForShards(procs, n, func(s, lo, hi int) error {
		c := &counts[s]
		for _, r := range o.refs[lo:hi] {
			b := byte(r.prefix >> shift)
			o.scratch[c[b]] = r
			c[b]++
		}
		return nil
	})
	o.refs, o.scratch = o.scratch, o.refs
	parallel.Do(procs, 256, func(b int) error {
		o.sortRun(o.refs[start[b]:start[b+1]], o.scratch[start[b]:start[b+1]], shift-8)
		return nil
	})
}

// extract builds the references of global rows [lo, hi) and returns the AND
// and the OR of their prefixes.
func (o *Order) extract(lo, hi int) [2]uint64 {
	and, or := ^uint64(0), uint64(0)
	base := 0
	for p, v := range o.parts {
		n := v.Len()
		for i := max(lo-base, 0); i < min(hi-base, n); i++ {
			row := v.row(i)
			prefix := binary.BigEndian.Uint64(v.recs.buf[row*RecordSize:])
			and, or = and&prefix, or|prefix
			o.refs[base+i] = ref{prefix, uint32(p), uint32(row)}
		}
		base += n
	}
	return [2]uint64{and, or}
}

// sortRun orders a, whose references arrive in input order and agree above
// prefix digit shift (negative: on the whole prefix), by full key: stably by
// prefix, then every stretch of equal prefixes — rare unless keys repeat —
// stably by key bytes 8-9, which are fetched into the prefix field (Gather
// reads only the position). tmp is scratch of the same length.
func (o *Order) sortRun(a, tmp []ref, shift int) {
	if shift >= 0 {
		sortRefs(a, tmp, uint(shift))
	}
	for i := 0; i < len(a); {
		j := i + 1
		for j < len(a) && a[j].prefix == a[i].prefix {
			j++
		}
		if j-i > 1 {
			for k := i; k < j; k++ {
				key := o.parts[a[k].part].recs.buf[int(a[k].row)*RecordSize:]
				a[k].prefix = uint64(binary.BigEndian.Uint16(key[8:KeySize]))
			}
			sortRefs(a[i:j], tmp[i:j], 8)
		}
		i = j
	}
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

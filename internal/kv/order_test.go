package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// reference is the kernel's contract spelled with the standard library:
// the records of all parts sorted as whole 100-byte records.
func reference(parts []Records) Records {
	var recs [][]byte
	for _, p := range parts {
		for i := range p.Len() {
			recs = append(recs, p.Record(i))
		}
	}
	slices.SortFunc(recs, bytes.Compare)
	out := MakeRecords(len(recs))
	for _, rec := range recs {
		out = out.Append(rec)
	}
	return out
}

// splitAt cuts r at the given ascending row boundaries; equal neighbours
// make empty parts.
func splitAt(r Records, cuts ...int) []Records {
	var parts []Records
	prev := 0
	for _, c := range append(cuts, r.Len()) {
		parts = append(parts, r.Slice(prev, c))
		prev = c
	}
	return parts
}

// splitInto cuts r into k parts at random boundaries, the second (when
// there is one) and the last always empty.
func splitInto(r Records, k int, rng *rand.Rand) []Records {
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = rng.Intn(r.Len() + 1)
	}
	slices.Sort(cuts)
	if k > 2 {
		cuts[1] = cuts[0]
		cuts[k-2] = r.Len()
	}
	return splitAt(r, cuts...)
}

func gatherAll(procs int, parts []Records) Records {
	var o Order
	o.Sort(procs, parts...)
	return o.Gather(Records{}, 0, o.Len())
}

// checkOrder holds the gathered output of parts to the reference, byte for
// byte, at every goroutine budget.
func checkOrder(t *testing.T, name string, parts []Records) {
	t.Helper()
	want := reference(parts)
	for _, procs := range []int{1, 2, 4, 7} {
		if got := gatherAll(procs, parts); !got.Equal(want) {
			t.Fatalf("%s: %d parts, procs=%d: differs from the reference at byte %d",
				name, len(parts), procs, firstDiff(got, want))
		}
	}
}

// TestSortOrderMatchesReference: every distribution, above and below
// the size where goroutines join in, split into 1, 3 and 12 buffers.
// DistDupHeavy (64 distinct keys, distinct values) makes the value bytes
// carry most of the order.
func TestSortOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, dist := range allDistributions {
		for _, n := range []int64{700, 9000} {
			base := NewGenerator(uint64(n), dist).Generate(0, n)
			for _, k := range []int{1, 3, 12} {
				checkOrder(t, fmt.Sprintf("%v n=%d", dist, n), splitInto(base, k, rng))
			}
		}
	}
}

// TestSortOrderEdgeCases: the sizes around the insertion cutoff, and keys
// built so that one step of the kernel decides everything — no digit
// discriminates, only byte 8 or only byte 9 does, or one prefix digit does
// and the other seven are skipped.
func TestSortOrderEdgeCases(t *testing.T) {
	for _, n := range []int64{0, 1, 2, insertionMaxRefs, insertionMaxRefs + 1, 63, 64} {
		base := NewGenerator(3, DistUniform).Generate(0, n)
		checkOrder(t, fmt.Sprintf("n=%d", n), []Records{base})
		checkOrder(t, fmt.Sprintf("n=%d", n), splitAt(base, int(n/3), int(n/3), int(n/2)))
	}
	shaped := func(shape func(key []byte, i int)) []Records {
		base := NewGenerator(5, DistUniform).Generate(0, 5000)
		for i := 0; i < base.Len(); i++ {
			key := base.Key(i)
			copy(key, "\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07")
			shape(key, i)
		}
		return splitAt(base, 1234, 1234, 4000)
	}
	checkOrder(t, "identical keys", shaped(func([]byte, int) {}))
	checkOrder(t, "byte 8 only", shaped(func(key []byte, i int) { key[8] = byte(i * 131) }))
	checkOrder(t, "byte 9 only", shaped(func(key []byte, i int) { key[9] = byte(i * 131) }))
	checkOrder(t, "shared 7-byte prefix", shaped(func(key []byte, i int) { key[7] = byte(i * 131) }))
	checkOrder(t, "bytes 7-9", shaped(func(key []byte, i int) {
		key[7], key[8], key[9] = byte(i%3), byte(i*37), byte(i*101)
	}))
}

// TestGatherWindowsTile: Gather over any cover of [0, n) by consecutive
// windows — one block at a time is how run generation writes — appends up
// to the full output.
func TestGatherWindowsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := splitInto(NewGenerator(11, DistZipf).Generate(0, 10000), 3, rng)
	want := reference(parts)
	for _, procs := range []int{1, 4} {
		var o Order
		o.Sort(procs, parts...)
		got := MakeRecords(16)
		for from := 0; from < o.Len(); {
			to := min(from+rng.Intn(6000), o.Len())
			got = o.Gather(got, from, to)
			from = to
		}
		if !got.Equal(want) {
			t.Fatalf("procs=%d: tiled gather differs at byte %d", procs, firstDiff(got, want))
		}
		if mid := o.Gather(Records{}, 100, 4321); !mid.Equal(want.Slice(100, 4321)) {
			t.Fatalf("procs=%d: window [100, 4321) is not that slice of the output", procs)
		}
	}
}

// TestGatherBlocksTile: GatherBlocks hands over the output in order, in
// full blocks but the last, all in one buffer, and stops at fn's error.
func TestGatherBlocksTile(t *testing.T) {
	parts := splitInto(NewGenerator(13, DistZipf).Generate(0, 10000), 3, rand.New(rand.NewSource(9)))
	want := reference(parts)
	var o Order
	o.Sort(4, parts...)
	for _, blockRows := range []int{1, 999, 4096, 10000, 20000} {
		var got Records
		var first *byte
		err := o.GatherBlocks(blockRows, func(b Records) error {
			if first == nil {
				first = &b.Bytes()[0]
			}
			if &b.Bytes()[0] != first || b.Len() > blockRows || b.Len() < blockRows && got.Len()+b.Len() != o.Len() {
				t.Fatalf("blockRows=%d: block of %d rows at row %d is not the reused buffer's next full block",
					blockRows, b.Len(), got.Len())
			}
			got = got.AppendRecords(b)
			return nil
		})
		if err != nil || !got.Equal(want) {
			t.Fatalf("blockRows=%d: blocks do not tile the output (err %v)", blockRows, err)
		}
	}
	stop := errors.New("stop")
	calls := 0
	if err := o.GatherBlocks(100, func(Records) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("GatherBlocks returned %v after %d calls, want the sink's error after 1", err, calls)
	}
}

// TestOrderReuse: an Order sorted again — over fewer, then more records, as
// a Sorter's runs do — forgets the previous input.
func TestOrderReuse(t *testing.T) {
	var o Order
	for _, n := range []int64{5000, 10, 0, 8000} {
		parts := []Records{NewGenerator(uint64(n), DistDupHeavy).Generate(0, n)}
		o.Sort(2, parts...)
		if got := o.Gather(Records{}, 0, o.Len()); !got.Equal(reference(parts)) {
			t.Fatalf("n=%d: reused order differs from the reference", n)
		}
	}
}

// TestPermuteMatchesGather: the in-place form (what SortRadixMSD is) leaves
// the buffer holding exactly what a gather would have produced.
func TestPermuteMatchesGather(t *testing.T) {
	for _, dist := range []Distribution{DistUniform, DistSorted, DistDupHeavy} {
		for _, n := range []int64{0, 1, 2, 100, 6000} {
			base := NewGenerator(21, dist).Generate(0, n)
			want := reference([]Records{base})
			for _, procs := range []int{1, 4} {
				got := base.Clone()
				got.SortRadixMSD(procs)
				if !got.Equal(want) {
					t.Fatalf("%v n=%d procs=%d: in-place order differs at byte %d", dist, n, procs, firstDiff(got, want))
				}
			}
		}
	}
}

// mergeRuns orders parts as the runs grouping assigns them to — part i goes
// to run grouping/3^i % 3 — added in run order, then merges the runs.
func mergeRuns(procs int, parts []Records, grouping int) Records {
	runOf := make([]int, len(parts))
	for i := range runOf {
		runOf[i], grouping = grouping%3, grouping/3
	}
	var o Order
	for run := 0; run < 3; run++ {
		var views []View
		for i, p := range parts {
			if runOf[i] == run {
				views = append(views, ViewAll(p))
			}
		}
		o.AddRun(procs, views...)
	}
	o.Merge()
	return o.Gather(Records{}, 0, o.Len())
}

// addBatches feeds parts to o as batches runs, part i in run i*batches /
// len(parts), the way a reducer adds what arrived since its last look.
func addBatches(o *Order, procs int, parts []Records, batches int) {
	var views []View
	for run, i := 0, 0; run < batches; run++ {
		views = views[:0]
		for ; i < len(parts) && i*batches/len(parts) == run; i++ {
			views = append(views, ViewAll(parts[i]))
		}
		o.AddRun(procs, views...)
	}
}

// TestOrderSettlesManyRuns: an order fed a run per small batch, as a
// reducer under a capped Shuffle is, merges its newest runs and compacts
// what it holds into a buffer of its own as the runs come, yet gathers
// exactly what one Sort over the same parts gathers — ties included, which
// dupheavy keys make frequent — and is left with at most ceil(log2
// batches) + 1 runs to merge at the end. An order of 2-4 runs, what an
// uncapped Shuffle hands a reducer, never compacts or merges early.
func TestOrderSettlesManyRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dist := range []Distribution{DistUniform, DistDupHeavy} {
		base := NewGenerator(3, dist).Generate(0, 9000)
		for _, procs := range []int{1, 4} {
			for _, batches := range []int{2, 3, 4, 100, 157} {
				parts := splitInto(base, 2*batches, rng)
				var want Order
				want.Sort(procs, parts...)
				var o Order
				addBatches(&o, procs, parts, batches)
				name := fmt.Sprintf("%v procs=%d batches=%d", dist, procs, batches)
				if batches <= 4 {
					if o.compactedRows != 0 || len(o.runs) != batches {
						t.Fatalf("%s: %d runs, %d rows compacted", name, len(o.runs), o.compactedRows)
					}
				} else if limit := bits.Len(uint(batches-1)) + 1; o.compactedRows == 0 || len(o.runs) > limit {
					t.Fatalf("%s: %d runs left (at most %d), %d rows compacted", name, len(o.runs), limit, o.compactedRows)
				}
				o.Merge()
				got := o.Gather(Records{}, 0, o.Len())
				if w := want.Gather(Records{}, 0, want.Len()); !got.Equal(w) {
					t.Fatalf("%s: differs from one Sort at byte %d", name, firstDiff(got, w))
				}
			}
		}
	}
}

// FuzzSortOrder: generated keys ANDed with an arbitrary per-byte mask (so
// digits, prefixes and whole keys collide in arbitrary patterns), cut at
// arbitrary boundaries, order exactly as the reference does — below
// and above the size where goroutines join in — whether the parts are
// ordered at once or as one to three runs, in any grouping, then merged.
// The seeds from the fifth on force stretches of equal 8-byte prefixes in
// every run, so a merge that compared on the key bytes 8-9 the run kernel
// sorts such a stretch by, instead of the prefix, would misplace them.
func FuzzSortOrder(f *testing.F) {
	f.Add(uint64(1), uint16(10), []byte{}, uint16(0), uint16(0), uint8(1), uint8(0))
	f.Add(uint64(2), uint16(700), []byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x80}, uint16(17), uint16(17), uint8(4), uint8(5))
	f.Add(uint64(3), uint16(5000), []byte{0, 0, 0x03}, uint16(300), uint16(4999), uint8(2), uint8(21))
	f.Add(uint64(4), uint16(8191), []byte{0, 0, 0, 0, 0, 0, 0, 0xc0, 0xff, 0xff}, uint16(1), uint16(2), uint8(7), uint8(11))
	// Four 8-byte prefixes, bytes 8-9 free: every run holds long stretches
	// of equal prefixes that differ in bytes 8-9.
	f.Add(uint64(5), uint16(900), []byte{0x03, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}, uint16(200), uint16(650), uint8(1), uint8(5))
	f.Add(uint64(6), uint16(6000), []byte{0, 0, 0, 0, 0, 0, 0, 0x81, 0xff, 0xff}, uint16(1500), uint16(4500), uint8(3), uint8(19))
	// Equal prefixes and equal bytes 8-9 as well: the value decides.
	f.Add(uint64(7), uint16(800), []byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0x01}, uint16(100), uint16(500), uint8(1), uint8(7))
	f.Add(uint64(8), uint16(300), []byte{0}, uint16(90), uint16(200), uint8(1), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, mask []byte, cutA, cutB uint16, procs, grouping uint8) {
		n := int(rows % 8192)
		base := NewGenerator(seed, DistUniform).Generate(0, int64(n))
		for i := 0; i < n && len(mask) > 0; i++ {
			for j, b := range base.Key(i) {
				base.Key(i)[j] = b & mask[j%len(mask)]
			}
		}
		a, b := int(cutA)%(n+1), int(cutB)%(n+1)
		parts := splitAt(base, min(a, b), max(a, b))
		want := reference(parts)
		if got := gatherAll(int(procs%8), parts); !got.Equal(want) {
			t.Fatalf("n=%d mask=%x cuts=%d,%d procs=%d: differs from the reference at byte %d",
				n, mask, a, b, procs%8, firstDiff(got, want))
		}
		if got := mergeRuns(int(procs%8), parts, int(grouping%27)); !got.Equal(want) {
			t.Fatalf("n=%d mask=%x cuts=%d,%d procs=%d grouping=%d: merged runs differ from the reference at byte %d",
				n, mask, a, b, procs%8, grouping%27, firstDiff(got, want))
		}
	})
}

var benchSink uint64

// BenchmarkSortOrder is what Reduce does to one partition: order 250 000
// rows held in four buffers, gather them, digest the output.
func BenchmarkSortOrder(b *testing.B) {
	const rows = 250000
	for _, dist := range []Distribution{DistUniform, DistZipf, DistDupHeavy} {
		parts := splitAt(NewGenerator(1, dist).Generate(0, rows), rows/4, rows/2, 3*rows/4)
		for _, procs := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%v/%s", dist, benchProcsName(procs)), func(b *testing.B) {
				b.SetBytes(rows * RecordSize)
				var o Order
				for b.Loop() {
					o.Sort(procs, parts...)
					out := o.Gather(MakeRecords(o.Len()), 0, o.Len())
					benchSink += out.Checksum()
				}
			})
		}
	}
}

// BenchmarkSortOrderRuns is BenchmarkSortOrder with the four buffers
// ordered as four runs and merged, as a reducer that ordered each part as
// it arrived would.
func BenchmarkSortOrderRuns(b *testing.B) {
	const rows = 250000
	for _, dist := range []Distribution{DistUniform, DistZipf, DistDupHeavy} {
		parts := splitAt(NewGenerator(1, dist).Generate(0, rows), rows/4, rows/2, 3*rows/4)
		b.Run(dist.String(), func(b *testing.B) {
			b.SetBytes(rows * RecordSize)
			for b.Loop() {
				var o Order
				o.Grow(rows)
				for _, p := range parts {
					o.AddRun(1, ViewAll(p))
				}
				o.Merge()
				out := o.Gather(MakeRecords(o.Len()), 0, o.Len())
				benchSink += out.Checksum()
			}
		})
	}
}

package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// gatherBytewise is the reference a view's record kernels are held to: the
// viewed records copied byte by byte from their buffer rows.
func gatherBytewise(v View) []byte {
	out := make([]byte, v.Len()*RecordSize)
	src := v.recs.Bytes()
	for i := 0; i < v.Len(); i++ {
		for b := 0; b < RecordSize; b++ {
			out[i*RecordSize+b] = src[v.row(i)*RecordSize+b]
		}
	}
	return out
}

// viewsOf views file as a Map keeps a file: its rows dealt at random to k
// views, rows ascending within each — every view interleaves with the
// others, so equal keys tie across views.
func viewsOf(file Records, k int, rng *rand.Rand) []View {
	lists := make([][]uint32, k)
	for i := 0; i < file.Len(); i++ {
		p := rng.Intn(k)
		lists[p] = append(lists[p], uint32(i))
	}
	views := make([]View, k)
	for p, rows := range lists {
		views[p] = ViewRows(file, rows)
	}
	return views
}

// TestViewKernelsMatchByteLoop: Gather, Collect and XORInto of listed,
// whole, sliced and empty views agree with the byte loop.
func TestViewKernelsMatchByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	file := NewGenerator(9, DistUniform).Generate(0, 300)
	views := append(viewsOf(file, 3, rng), ViewAll(file), ViewAll(file.Slice(7, 40)),
		ViewRows(file, nil), ViewAll(Records{}), viewsOf(file, 2, rng)[0].Slice(5, 60))
	for i, v := range views {
		want := gatherBytewise(v)
		got := make([]byte, len(want))
		v.Gather(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("view %d: Gather differs from the byte loop", i)
		}
		if !bytes.Equal(v.Collect().Bytes(), want) {
			t.Fatalf("view %d: Collect differs from the byte loop", i)
		}
		dst := make([]byte, len(want))
		rng.Read(dst)
		wantXOR := append([]byte(nil), dst...)
		for b := range wantXOR {
			wantXOR[b] ^= want[b]
		}
		v.XORInto(dst)
		if !bytes.Equal(dst, wantXOR) {
			t.Fatalf("view %d: XORInto differs from the byte loop", i)
		}
		if v.Size() != len(want) {
			t.Fatalf("view %d: Size %d, gathered %d bytes", i, v.Size(), len(want))
		}
	}
}

// checkViewOrder holds the order over views to the order over their
// gathered copies, byte for byte, at procs 1 and 4.
func checkViewOrder(t *testing.T, name string, views []View) {
	t.Helper()
	copies := make([]Records, len(views))
	for i, v := range views {
		copies[i] = Records{buf: gatherBytewise(v)}
	}
	want := gatherAll(1, copies)
	if !want.Equal(reference(copies)) {
		t.Fatalf("%s: the order over copies differs from the reference", name)
	}
	for _, procs := range []int{1, 4} {
		var o Order
		o.AddRun(procs, views...)
		if got := o.Gather(Records{}, 0, o.Len()); !got.Equal(want) {
			t.Fatalf("%s: %d views, procs=%d: differs from the order over the gathered copies at byte %d",
				name, len(views), procs, firstDiff(got, want))
		}
	}
}

// TestOrderOverViewsMatchesCopies: ordering references through views —
// several interleaved views of one file beside a whole second file and
// empty views — is ordering the gathered copies: every distribution, above
// and below the size where goroutines join in. DistDupHeavy makes the value
// bytes of records spread across views carry most of the order.
func TestOrderOverViewsMatchesCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dist := range allDistributions {
		for _, n := range []int64{700, 9000} {
			file := NewGenerator(uint64(n), dist).Generate(0, n)
			other := NewGenerator(uint64(n)+1, dist).Generate(n, n/3)
			views := append(viewsOf(file, 4, rng), ViewRows(file, nil), ViewAll(other), ViewAll(Records{}))
			rng.Shuffle(len(views), func(i, j int) { views[i], views[j] = views[j], views[i] })
			checkViewOrder(t, fmt.Sprintf("%v n=%d", dist, n), views)
		}
	}
	checkViewOrder(t, "no views", nil)
	checkViewOrder(t, "only empty views", []View{ViewRows(Records{}, nil), ViewAll(Records{})})

	// All-equal prefixes: only key bytes 8-9, or nothing, tell records
	// apart, so every comparison is a tie of the prefix.
	for _, shape := range []struct {
		name string
		fn   func(key []byte, i int)
	}{
		{"identical keys", func([]byte, int) {}},
		{"byte 8-9 only", func(key []byte, i int) { key[8], key[9] = byte(i%5), byte(i*131) }},
	} {
		file := NewGenerator(5, DistUniform).Generate(0, 6000)
		for i := 0; i < file.Len(); i++ {
			copy(file.Key(i), "\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07")
			shape.fn(file.Key(i), i)
		}
		checkViewOrder(t, shape.name, viewsOf(file, 5, rng))
	}
}

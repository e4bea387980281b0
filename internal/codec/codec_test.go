package codec

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
)

func gen(seed uint64, n int64) kv.Records {
	return kv.NewGenerator(seed, kv.DistUniform).Generate(0, n)
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 100} {
		iv := gen(uint64(n), n)
		got, err := UnpackIV(PackIV(iv))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(iv) {
			t.Fatalf("roundtrip failed for %d records", n)
		}
	}
}

func TestPackedSize(t *testing.T) {
	iv := gen(1, 13)
	if got := len(PackIV(iv)); got != PackedSize(13) {
		t.Fatalf("PackedSize = %d, packed = %d", PackedSize(13), got)
	}
}

func TestUnpackRejectsCorruption(t *testing.T) {
	p := PackIV(gen(1, 5))
	if _, err := UnpackIV(p[:3]); err == nil {
		t.Fatalf("truncated header accepted")
	}
	if _, err := UnpackIV(p[:len(p)-10]); err == nil {
		t.Fatalf("truncated payload accepted")
	}
	p[0] ^= 1 // corrupt the count
	if _, err := UnpackIV(p); err == nil {
		t.Fatalf("corrupted count accepted")
	}
}

func TestSplitSegmentsEvenAndComplete(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{10, 3}, {9, 3}, {1, 4}, {0, 2}, {100, 1}, {7, 7}} {
		iv := gen(uint64(tc.n), int64(tc.n))
		total := 0
		min, max := tc.n, 0
		var joined kv.Records
		for j := 0; j < tc.r; j++ {
			s := Segment(iv, tc.r, j)
			total += s.Len()
			joined = joined.AppendRecords(s)
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
		}
		if total != tc.n {
			t.Fatalf("n=%d r=%d: segments cover %d records", tc.n, tc.r, total)
		}
		if max-min > 1 {
			t.Fatalf("n=%d r=%d: uneven split %d..%d", tc.n, tc.r, min, max)
		}
		if !joined.Equal(iv) {
			t.Fatalf("n=%d r=%d: concat != original", tc.n, tc.r)
		}
	}
}

// TestSegmentMatchesSplit: segment j of r holds records [j*n/r, (j+1)*n/r).
func TestSegmentMatchesSplit(t *testing.T) {
	iv := gen(3, 23)
	for j := 0; j < 5; j++ {
		if !Segment(iv, 5, j).Equal(iv.Slice(j*23/5, (j+1)*23/5)) {
			t.Fatalf("Segment(%d) mismatch", j)
		}
	}
}

func TestSplitSegmentsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Segment(gen(1, 4), 0, 0)
}

func TestFrameRoundTrip(t *testing.T) {
	seg := gen(2, 3).Bytes()
	frame := AppendFrame(nil, seg, FrameSize(len(seg))+16)
	got, err := openFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seg) {
		t.Fatalf("frame roundtrip failed")
	}
}

func TestOpenFrameErrors(t *testing.T) {
	if _, err := openFrame([]byte{1, 2}); err == nil {
		t.Fatalf("short frame accepted")
	}
	// Length beyond the frame.
	bad := AppendFrame(nil, gen(1, 1).Bytes(), FrameSize(kv.RecordSize))
	bad[3] = 0xFF
	if _, err := openFrame(bad); err == nil {
		t.Fatalf("oversized declared length accepted")
	}
	// Non record-aligned length.
	misaligned := make([]byte, frameHeader+50)
	misaligned[3] = 50
	if _, err := openFrame(misaligned); err == nil {
		t.Fatalf("misaligned segment accepted")
	}
	// Garbage padding.
	padded := AppendFrame(nil, gen(1, 1).Bytes(), FrameSize(kv.RecordSize)+8)
	padded[len(padded)-1] = 0xAB
	if _, err := openFrame(padded); err == nil {
		t.Fatalf("dirty padding accepted")
	}
}

func TestXORIntoSelfInverse(t *testing.T) {
	a := gen(1, 3).Bytes()
	orig := append([]byte(nil), a...)
	b := gen(2, 3).Bytes()
	XORInto(a, b)
	if bytes.Equal(a, orig) {
		t.Fatalf("XOR did nothing")
	}
	XORInto(a, b)
	if !bytes.Equal(a, orig) {
		t.Fatalf("XOR not self-inverse")
	}
}

func TestXORIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	XORInto(make([]byte, 3), make([]byte, 4))
}

func TestXORIntoOddLengths(t *testing.T) {
	// Exercise the tail loop (lengths not multiples of 8).
	for _, n := range []int{0, 1, 7, 9, 15, 100} {
		a := make([]byte, n)
		b := make([]byte, n)
		for i := range a {
			a[i], b[i] = byte(i), byte(i*3+1)
		}
		want := make([]byte, n)
		for i := range want {
			want[i] = a[i] ^ b[i]
		}
		XORInto(a, b)
		if !bytes.Equal(a, want) {
			t.Fatalf("n=%d: XOR wrong", n)
		}
	}
}

// buildScenario maps a synthetic input across a full coded placement and
// returns, for each node, the IVs it would hold after the Map stage
// (everything computed from files containing the node). The universe is
// {0..k-1}; partitioning is uniform over k partitions.
func buildScenario(t *testing.T, seed uint64, k, r int, rows int64) (stores []IVMap, truth IVMap) {
	t.Helper()
	return buildScenarioQuick(seed, k, r, rows)
}

// localOnlyStore asserts that every IV read concerns a file stored on the
// node, i.e. the codec never peeks at remote state.
type localOnlyStore struct {
	t     *testing.T
	node  int
	inner IVMap
}

func (s localOnlyStore) View(part int, file combin.Set) kv.View {
	if !file.Contains(s.node) {
		s.t.Fatalf("node %d read IV of remote file %v", s.node, file)
	}
	return s.inner.View(part, file)
}

func TestEncodeDecodeAllGroups(t *testing.T) {
	for _, tc := range []struct {
		k, r int
		rows int64
	}{
		{4, 2, 600}, {5, 2, 500}, {5, 3, 777}, {6, 1, 300}, {6, 5, 900}, {3, 2, 90},
	} {
		stores, truth := buildScenario(t, uint64(tc.k*100+tc.r), tc.k, tc.r, tc.rows)
		groups := combin.Subsets(combin.Range(tc.k), tc.r+1)
		for _, m := range groups {
			g := CliqueGroup(m)
			// Every member encodes one packet; every other member decodes it.
			packets := map[int][]byte{}
			for _, u := range m.Members() {
				p, err := EncodeGroupPacket(localOnlyStore{t, u, stores[u]}, g, u)
				if err != nil {
					t.Fatalf("k=%d r=%d encode %v at %d: %v", tc.k, tc.r, m, u, err)
				}
				packets[u] = p
			}
			for _, k2 := range m.Members() {
				file := m.Remove(k2)
				want := truth.IV(k2, file)
				var got kv.Records
				for _, u := range file.Members() {
					seg, err := DecodeGroupPacket(localOnlyStore{t, k2, stores[k2]}, g, k2, u, packets[u])
					if err != nil {
						t.Fatalf("k=%d r=%d decode %v at %d from %d: %v", tc.k, tc.r, m, k2, u, err)
					}
					got = got.AppendRecords(seg)
				}
				if !got.Equal(want) {
					t.Fatalf("k=%d r=%d group %v node %d: recovered IV mismatch (%d vs %d records)",
						tc.k, tc.r, m, k2, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestViewStoreMatchesContiguous: a store of views into the files encodes
// the very packets a store of contiguous copies does, whole and chunked, and
// the in-place decodes over it recover what DecodeGroupPacket recovers from
// the copies — while the files, which both sides only read, keep their
// digest.
func TestViewStoreMatchesContiguous(t *testing.T) {
	for _, tc := range []struct {
		k, r int
		rows int64
	}{
		{4, 2, 600}, {5, 3, 777}, {6, 1, 300}, {3, 2, 90}, {5, 2, 0},
	} {
		views, files := viewScenario(uint64(tc.k*10+tc.r), tc.k, tc.r, tc.rows)
		stores, _ := buildScenarioQuick(uint64(tc.k*10+tc.r), tc.k, tc.r, tc.rows)
		sums := checksums(files)
		for _, m := range combin.Subsets(combin.Range(tc.k), tc.r+1) {
			g := CliqueGroup(m)
			for _, u := range m.Members() {
				whole, err := EncodeGroupPacket(views[u], g, u)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := EncodeGroupPacket(stores[u], g, u); !bytes.Equal(whole, want) {
					t.Fatalf("k=%d r=%d group %v u=%d: view and contiguous stores encode different packets", tc.k, tc.r, m, u)
				}
				const chunkRows = 7
				count := GroupPacketChunkCount(views[u], g, u, chunkRows)
				for _, k2 := range m.Remove(u).Members() {
					want, err := DecodeGroupPacket(stores[k2], g, k2, u, whole)
					if err != nil {
						t.Fatal(err)
					}
					got, err := DecodeGroupPacketInPlace(views[k2], g, k2, u, append([]byte(nil), whole...))
					if err != nil || !got.Equal(want) {
						t.Fatalf("k=%d r=%d group %v u=%d k2=%d: in-place decode differs (err %v)", tc.k, tc.r, m, u, k2, err)
					}
					chunked := kv.MakeRecords(0)
					for c := 0; c < count; c++ {
						frame, err := FrameGroupPacketChunk(views[u], g, u, chunkRows, c, c == count-1)
						if err != nil {
							t.Fatal(err)
						}
						pkt, err := EncodeGroupPacketChunk(stores[u], g, u, chunkRows, c)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(frame, FrameChunk(uint32(c), c == count-1, pkt)) {
							t.Fatalf("k=%d r=%d group %v u=%d chunk %d: fused chunk frame differs", tc.k, tc.r, m, u, c)
						}
						part, err := DecodeGroupPacketChunkInPlace(views[k2], g, k2, u, chunkRows, c, frame[chunkHeaderSize:])
						if err != nil {
							t.Fatal(err)
						}
						chunked = chunked.AppendRecords(part)
					}
					if !chunked.Equal(want) {
						t.Fatalf("k=%d r=%d group %v u=%d k2=%d: chunked in-place decode differs", tc.k, tc.r, m, u, k2)
					}
				}
			}
		}
		if got := checksums(files); !slices.Equal(got, sums) {
			t.Fatalf("k=%d r=%d: encode or decode wrote an input file", tc.k, tc.r)
		}
	}
}

func TestEncodeDecodeEmptyIVs(t *testing.T) {
	// All-empty intermediate values must encode to an all-zero minimal
	// packet and decode to empty segments.
	stores, _ := buildScenario(t, 1, 4, 2, 0)
	g := CliqueGroup(combin.NewSet(0, 1, 2))
	p, err := EncodeGroupPacket(stores[0], g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != frameHeader {
		t.Fatalf("empty packet width = %d, want %d", len(p), frameHeader)
	}
	seg, err := DecodeGroupPacket(stores[1], g, 1, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Len() != 0 {
		t.Fatalf("decoded %d records from empty scenario", seg.Len())
	}
}

func TestEncodeErrors(t *testing.T) {
	stores, _ := buildScenario(t, 2, 4, 2, 100)
	if _, err := EncodeGroupPacket(stores[3], CliqueGroup(combin.NewSet(0, 1, 2)), 3); err == nil {
		t.Fatalf("encode by non-member accepted")
	}
	if _, err := EncodeGroupPacket(stores[0], CliqueGroup(combin.NewSet(0)), 0); err == nil {
		t.Fatalf("singleton group accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	stores, _ := buildScenario(t, 3, 4, 2, 200)
	g := CliqueGroup(combin.NewSet(0, 1, 2))
	p, err := EncodeGroupPacket(stores[0], g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGroupPacket(stores[1], g, 1, 1, p); err == nil {
		t.Fatalf("k == u accepted")
	}
	if _, err := DecodeGroupPacket(stores[3], g, 3, 0, p); err == nil {
		t.Fatalf("non-member decoder accepted")
	}
	if _, err := DecodeGroupPacket(stores[1], g, 1, 0, p[:2]); err == nil {
		t.Fatalf("truncated packet accepted")
	}
}

func TestDecodeDetectsCorruptPacket(t *testing.T) {
	stores, _ := buildScenario(t, 4, 5, 2, 500)
	g := CliqueGroup(combin.NewSet(0, 1, 2))
	p, err := EncodeGroupPacket(stores[0], g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p[0] ^= 0x80 // push the decoded length header far out of range
	if _, err := DecodeGroupPacket(stores[1], g, 1, 0, p); err == nil {
		t.Fatalf("corrupt header decoded without error")
	}
}

func TestCodedPacketSavesBytes(t *testing.T) {
	// Within one group, the r+1 coded packets replace (r+1)*r unicast
	// segments; total coded bytes must be close to 1/r of the uncoded
	// segment bytes (up to per-packet padding and headers).
	k, r := 6, 3
	stores, truth := buildScenario(t, 6, k, r, 6000)
	m := combin.NewSet(0, 1, 2, 3)
	var codedBytes, uncodedBytes int
	for _, u := range m.Members() {
		p, err := EncodeGroupPacket(stores[u], CliqueGroup(m), u)
		if err != nil {
			t.Fatal(err)
		}
		codedBytes += len(p)
		// Uncoded: u would unicast each needed segment separately.
		for _, t2 := range m.Remove(u).Members() {
			file := m.Remove(t2)
			uncodedBytes += Segment(truth.IV(t2, file), r, file.Index(u)).Size()
		}
	}
	lo := uncodedBytes / r
	hi := uncodedBytes/r + (r+1)*(frameHeader+r*kv.RecordSize)
	if codedBytes < lo || codedBytes > hi {
		t.Fatalf("coded bytes %d outside [%d, %d] (uncoded %d, r=%d)",
			codedBytes, lo, hi, uncodedBytes, r)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed uint64, kRaw, rRaw uint8, rowsRaw uint16) bool {
		k := int(kRaw%5) + 3          // 3..7
		r := int(rRaw%uint8(k-1)) + 1 // 1..k-1
		rows := int64(rowsRaw % 2000)
		stores, truth := buildScenarioQuick(seed, k, r, rows)
		// Check one deterministic-but-seed-dependent group.
		groups := combin.Subsets(combin.Range(k), r+1)
		m := groups[int(seed%uint64(len(groups)))]
		g := CliqueGroup(m)
		packets := map[int][]byte{}
		for _, u := range m.Members() {
			p, err := EncodeGroupPacket(stores[u], g, u)
			if err != nil {
				return false
			}
			packets[u] = p
		}
		for _, kk := range m.Members() {
			file := m.Remove(kk)
			var got kv.Records
			for _, u := range file.Members() {
				seg, err := DecodeGroupPacket(stores[kk], g, kk, u, packets[u])
				if err != nil {
					return false
				}
				got = got.AppendRecords(seg)
			}
			if !got.Equal(truth.IV(kk, file)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// buildScenarioQuick is buildScenario without the testing.T plumbing.
func buildScenarioQuick(seed uint64, k, r int, rows int64) ([]IVMap, IVMap) {
	truth := IVMap{}
	stores := make([]IVMap, k)
	for i := range stores {
		stores[i] = IVMap{}
	}
	views, _ := viewScenario(seed, k, r, rows)
	for _, node := range views {
		for key, v := range node {
			truth[key] = v.Collect()
		}
	}
	for node, vs := range views {
		for key := range vs {
			stores[node][key] = truth[key]
		}
	}
	return stores, truth
}

// viewScenario is the scenario of buildScenario as the in-memory Map keeps
// it: every intermediate value is a view of the rows of its file, which is
// one generated buffer per file. It returns each node's view store and the
// files (the buffers the views point into).
func viewScenario(seed uint64, k, r int, rows int64) ([]ViewMap, []kv.Records) {
	stores := make([]ViewMap, k)
	for i := range stores {
		stores[i] = ViewMap{}
	}
	sets := combin.Subsets(combin.Range(k), r)
	bounds := kv.SplitRows(rows, len(sets))
	g := kv.NewGenerator(seed, kv.DistUniform)
	files := make([]kv.Records, len(sets))
	for fi, file := range sets {
		recs := g.Generate(bounds[fi], bounds[fi+1]-bounds[fi])
		files[fi] = recs
		// Hash into k partitions by first key byte range.
		lists := make([][]uint32, k)
		for i := 0; i < recs.Len(); i++ {
			p := int(recs.Key(i)[0]) * k / 256
			lists[p] = append(lists[p], uint32(i))
		}
		for p, rows := range lists {
			for _, node := range file.Members() {
				stores[node].Put(p, file, kv.ViewRows(recs, rows))
			}
		}
	}
	return stores, files
}

// checksums returns the digest of every buffer.
func checksums(bufs []kv.Records) []uint64 {
	out := make([]uint64, len(bufs))
	for i, b := range bufs {
		out[i] = b.Checksum()
	}
	return out
}

func BenchmarkEncodePacket(b *testing.B) {
	stores, _ := buildScenarioQuick(1, 6, 3, 60000)
	g := CliqueGroup(combin.NewSet(0, 1, 2, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeGroupPacket(stores[0], g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePacket(b *testing.B) {
	stores, _ := buildScenarioQuick(1, 6, 3, 60000)
	g := CliqueGroup(combin.NewSet(0, 1, 2, 3))
	p, err := EncodeGroupPacket(stores[0], g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeGroupPacket(stores[1], g, 1, 0, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXOR(b *testing.B) {
	x := make([]byte, 1<<20)
	y := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		XORInto(x, y)
	}
}

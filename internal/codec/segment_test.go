package codec

import (
	"slices"
	"strings"
	"testing"

	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
)

// segments cuts packet every segRows records into fresh copies of its
// segments, as a transport delivers them to each receiver.
func segments(packet []byte, segRows int) [][]byte {
	var out [][]byte
	for s, last := 0, false; !last; s++ {
		var seg []byte
		seg, last = PacketSegment(packet, segRows, s)
		out = append(out, append([]byte{}, seg...))
	}
	return out
}

// decodeSegments feeds segs to a fresh decoder and returns the records
// recovered, each piece checked to alias its segment.
func decodeSegments(t *testing.T, store IVStore, g Group, k, u, segRows int, segs [][]byte) (kv.Records, error) {
	t.Helper()
	dec, err := NewSegmentDecoder(store, g, k, u, segRows)
	if err != nil {
		return kv.Records{}, err
	}
	got := kv.MakeRecords(0)
	for i, seg := range segs {
		recs, last, err := dec.Decode(seg)
		if err != nil {
			return got, err
		}
		if last != (i == len(segs)-1) {
			t.Fatalf("segment %d of %d: last = %v", i, len(segs), last)
		}
		if b := recs.Bytes(); len(b) > 0 && !aliases(b, seg) {
			t.Fatalf("segment %d decoded into a copy", i)
		}
		got = got.AppendRecords(recs)
	}
	return got, nil
}

// aliases reports whether b lies inside seg.
func aliases(b, seg []byte) bool {
	for i := range seg {
		if &seg[i] == &b[0] {
			return i+len(b) <= len(seg)
		}
	}
	return false
}

// TestSegmentedDecodeMatchesWhole: for every group, sender and receiver,
// a packet cut at any segment size and decoded segment by segment, each in
// place, recovers exactly what decoding it whole does; it travels as
// body/segRows + 1 segments, the last one short (empty when the body is a
// whole number of segments), and segRows 0 leaves it one segment.
func TestSegmentedDecodeMatchesWhole(t *testing.T) {
	for _, tc := range []struct {
		k, r int
		rows int64
	}{
		{4, 2, 600}, {5, 3, 777}, {6, 1, 300}, {3, 2, 90}, {4, 2, 0},
	} {
		stores, _ := buildScenario(t, uint64(tc.k*10+tc.r), tc.k, tc.r, tc.rows)
		for _, m := range combin.Subsets(combin.Range(tc.k), tc.r+1) {
			g := CliqueGroup(m)
			for _, u := range m.Members() {
				packet, err := EncodeGroupPacket(stores[u], g, u)
				if err != nil {
					t.Fatal(err)
				}
				bodyRows := (len(packet) - frameHeader) / kv.RecordSize
				for _, segRows := range []int{0, 1, 3, 7, max(bodyRows, 1), 1000} {
					segs := segments(packet, segRows)
					want := 1
					if segRows > 0 {
						want = bodyRows/segRows + 1
					}
					if len(segs) != want {
						t.Fatalf("k=%d r=%d group %v u=%d segRows=%d: %d segments of a %d-row body, want %d",
							tc.k, tc.r, m, u, segRows, len(segs), bodyRows, want)
					}
					for _, k2 := range m.Remove(u).Members() {
						whole, err := DecodeGroupPacket(stores[k2], g, k2, u, packet)
						if err != nil {
							t.Fatal(err)
						}
						got, err := decodeSegments(t, stores[k2], g, k2, u, segRows, segments(packet, segRows))
						if err != nil || !got.Equal(whole) {
							t.Fatalf("k=%d r=%d group %v u=%d k2=%d segRows=%d: segmented decode differs (err %v)",
								tc.k, tc.r, m, u, k2, segRows, err)
						}
					}
				}
			}
		}
	}
}

// TestSegmentedEncodeMatchesWhole is the mirror of
// TestSegmentedDecodeMatchesWhole: for every group and sender, a packet
// built segment by segment, into a buffer of stale bytes and last segment
// first, is the whole EncodeGroupPacket byte for byte, and each segment
// EncodeSegment returns is that packet's PacketSegment.
func TestSegmentedEncodeMatchesWhole(t *testing.T) {
	for _, tc := range []struct {
		k, r int
		rows int64
	}{
		{4, 2, 600}, {5, 3, 777}, {6, 1, 300}, {3, 2, 90}, {4, 2, 0},
	} {
		stores, _ := buildScenario(t, uint64(tc.k*10+tc.r), tc.k, tc.r, tc.rows)
		for _, m := range combin.Subsets(combin.Range(tc.k), tc.r+1) {
			g := CliqueGroup(m)
			for _, u := range m.Members() {
				whole, err := EncodeGroupPacket(stores[u], g, u)
				if err != nil {
					t.Fatal(err)
				}
				bodyRows := (len(whole) - frameHeader) / kv.RecordSize
				for _, segRows := range []int{0, 1, 3, 7, max(bodyRows, 1), 1000} {
					enc, err := NewPacketEncoder(stores[u], g, u, segRows)
					if err != nil {
						t.Fatal(err)
					}
					want := segments(whole, segRows)
					if enc.Size() != len(whole) || enc.Segments() != len(want) {
						t.Fatalf("k=%d r=%d group %v u=%d segRows=%d: %d bytes in %d segments, want %d in %d",
							tc.k, tc.r, m, u, segRows, enc.Size(), enc.Segments(), len(whole), len(want))
					}
					packet := slices.Repeat([]byte{0xa5}, enc.Size())
					for s := enc.Segments() - 1; s >= 0; s-- {
						seg, last := enc.EncodeSegment(packet, s)
						if !slices.Equal(seg, want[s]) || last != (s == len(want)-1) {
							t.Fatalf("k=%d r=%d group %v u=%d segRows=%d: segment %d (last %v) differs",
								tc.k, tc.r, m, u, segRows, s, last)
						}
					}
					if !slices.Equal(packet, whole) {
						t.Fatalf("k=%d r=%d group %v u=%d segRows=%d: segment-wise packet differs from the whole one",
							tc.k, tc.r, m, u, segRows)
					}
				}
			}
		}
	}
}

// TestSegmentEdges pins the segment rule at its edges on a group of two,
// whose packet is the lone segment's frame: an empty packet is its header
// alone, one segment; a one-record packet cut at one record is a full
// segment closed by an empty one, and cut wider is one short segment; and
// a packet that is a whole number of segments is closed by an empty one.
func TestSegmentEdges(t *testing.T) {
	pair := CliqueGroup(combin.NewSet(0, 1))
	recs := kv.NewGenerator(5, kv.DistUniform).Generate(0, 6)
	for _, tc := range []struct {
		name    string
		rows    int // records node 1 needs from node 0
		segRows int
		lens    []int // the segments' lengths
	}{
		{"empty packet", 0, 4, []int{frameHeader}},
		{"one record, one-record segments", 1, 1, []int{frameHeader + kv.RecordSize, 0}},
		{"one record, wider segments", 1, 4, []int{frameHeader + kv.RecordSize}},
		{"whole number of segments", 6, 3, []int{frameHeader + 3*kv.RecordSize, 3 * kv.RecordSize, 0}},
		{"short last segment", 6, 4, []int{frameHeader + 4*kv.RecordSize, 2 * kv.RecordSize}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iv := recs.Slice(0, tc.rows)
			sender := IVMap{}
			sender.Put(1, combin.NewSet(0), iv)
			packet, err := EncodeGroupPacket(sender, pair, 0)
			if err != nil {
				t.Fatal(err)
			}
			segs := segments(packet, tc.segRows)
			var lens []int
			for _, s := range segs {
				lens = append(lens, len(s))
			}
			if !slices.Equal(lens, tc.lens) {
				t.Fatalf("segment lengths %v, want %v", lens, tc.lens)
			}
			got, err := decodeSegments(t, IVMap{}, pair, 1, 0, tc.segRows, segs)
			if err != nil || !got.Equal(iv) {
				t.Fatalf("decoded %d records (err %v), want %d", got.Len(), err, iv.Len())
			}
		})
	}
}

// TestSegmentDecodeErrors: a segment cut off its record bound, one longer
// than a segment, a packet closed before the records its header declares,
// a segment after the close, and wrong side information each fail.
func TestSegmentDecodeErrors(t *testing.T) {
	stores, _ := buildScenario(t, 4, 4, 2, 600)
	g := CliqueGroup(combin.NewSet(0, 1, 2))
	packet, err := EncodeGroupPacket(stores[0], g, 0)
	if err != nil {
		t.Fatal(err)
	}
	const segRows = 5
	decode := func(segs [][]byte, store IVStore) error {
		_, err := decodeSegments(t, store, g, 1, 0, segRows, segs)
		return err
	}
	cases := map[string]struct {
		segs  func() [][]byte
		store IVStore
		want  string
	}{
		"truncated": {func() [][]byte {
			segs := segments(packet, segRows)
			segs[1] = segs[1][:len(segs[1])-1]
			return segs[:2]
		}, stores[1], "not up to"},
		"overlong": {func() [][]byte {
			return [][]byte{append(segments(packet, segRows)[0], make([]byte, kv.RecordSize)...)}
		}, stores[1], "not up to"},
		"closed early": {func() [][]byte {
			segs := segments(packet, segRows)
			return [][]byte{segs[0], segs[1][:kv.RecordSize]}
		}, stores[1], "declares"},
		"wrong side information": {func() [][]byte { return segments(packet, segRows) }, stores[3], ""},
	}
	for name, c := range cases {
		err := decode(c.segs(), c.store)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", name, err, c.want)
		}
	}
	dec, err := NewSegmentDecoder(stores[1], g, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, last, err := dec.Decode(append([]byte{}, packet...)); err != nil || !last {
		t.Fatalf("whole packet: last %v, err %v", last, err)
	}
	if _, _, err := dec.Decode(nil); err == nil || !strings.Contains(err.Error(), "after the packet closed") {
		t.Fatalf("segment after the close: err %v", err)
	}
	if _, err := NewSegmentDecoder(stores[1], g, 1, 1, segRows); err == nil {
		t.Fatal("a decoder of a node's own packet was built")
	}
}

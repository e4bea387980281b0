package codec

import (
	"bytes"
	"testing"

	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
)

func TestChunkFrameRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 100} {
		payload := PackIV(gen(uint64(n+1), n))
		for _, last := range []bool{false, true} {
			frame := FrameChunk(uint32(n), last, payload)
			if len(frame) != ChunkFrameSize(len(payload)) {
				t.Fatalf("frame size %d, want %d", len(frame), ChunkFrameSize(len(payload)))
			}
			seq, gotLast, got, err := OpenChunk(frame)
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint32(n) || gotLast != last || !bytes.Equal(got, payload) {
				t.Fatalf("roundtrip mismatch: seq=%d last=%v", seq, gotLast)
			}
		}
	}
}

func TestOpenChunkErrors(t *testing.T) {
	if _, _, _, err := OpenChunk([]byte{1, 2, 3}); err == nil {
		t.Fatalf("short frame accepted")
	}
	frame := FrameChunk(0, true, []byte{1, 2, 3, 4})
	if _, _, _, err := OpenChunk(frame[:len(frame)-1]); err == nil {
		t.Fatalf("truncated payload accepted")
	}
	extra := append(append([]byte(nil), frame...), 0xAA)
	if _, _, _, err := OpenChunk(extra); err == nil {
		t.Fatalf("oversized payload accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[4] = 0x80 // unknown flag bit
	if _, _, _, err := OpenChunk(bad); err == nil {
		t.Fatalf("unknown flags accepted")
	}
}

func TestChunkStreamOrder(t *testing.T) {
	var s ChunkStream
	for seq := 0; seq < 3; seq++ {
		payload, last, err := s.Accept(FrameChunk(uint32(seq), seq == 2, []byte{byte(seq)}))
		if err != nil {
			t.Fatal(err)
		}
		if last != (seq == 2) || payload[0] != byte(seq) {
			t.Fatalf("seq %d: last=%v payload=%v", seq, last, payload)
		}
	}
	if !s.Done() {
		t.Fatalf("stream not done after last chunk")
	}
	if _, _, err := s.Accept(FrameChunk(3, true, nil)); err == nil {
		t.Fatalf("chunk after final accepted")
	}

	var gap ChunkStream
	if _, _, err := gap.Accept(FrameChunk(1, false, nil)); err == nil {
		t.Fatalf("gap in sequence accepted")
	}
	var repeat ChunkStream
	if _, _, err := repeat.Accept(FrameChunk(0, false, nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repeat.Accept(FrameChunk(0, false, nil)); err == nil {
		t.Fatalf("repeated sequence accepted")
	}
}

func TestNumChunksAndSpan(t *testing.T) {
	for _, tc := range []struct{ n, rows, want int }{
		{0, 10, 1}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {25, 10, 3}, {100, 1, 100},
	} {
		if got := NumChunks(tc.n, tc.rows); got != tc.want {
			t.Fatalf("NumChunks(%d,%d) = %d, want %d", tc.n, tc.rows, got, tc.want)
		}
		covered := 0
		for c := 0; c < NumChunks(tc.n, tc.rows); c++ {
			lo, hi := ChunkSpan(tc.n, tc.rows, c)
			if lo != covered {
				t.Fatalf("n=%d rows=%d chunk %d starts at %d, want %d", tc.n, tc.rows, c, lo, covered)
			}
			covered = hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d rows=%d: chunks cover %d records", tc.n, tc.rows, covered)
		}
		// Spans past the end are empty, never out of range.
		if lo, hi := ChunkSpan(tc.n, tc.rows, NumChunks(tc.n, tc.rows)+3); lo != hi {
			t.Fatalf("past-the-end span not empty")
		}
	}
}

// TestChunkedPackEquivalence: splitting an IV into ChunkRows chunks, packing
// each, and concatenating the unpacked chunks reproduces the monolithic IV —
// the unicast (TeraSort) side of the pipeline equivalence.
func TestChunkedPackEquivalence(t *testing.T) {
	for _, rows := range []int64{0, 1, 9, 100, 257} {
		iv := gen(uint64(rows+7), rows)
		for _, chunkRows := range []int{1, 7, 64, 1000} {
			out := kv.MakeRecords(0)
			var stream ChunkStream
			n := NumChunks(iv.Len(), chunkRows)
			for c := 0; c < n; c++ {
				lo, hi := ChunkSpan(iv.Len(), chunkRows, c)
				frame := FrameChunk(uint32(c), c == n-1, PackIV(iv.Slice(lo, hi)))
				payload, last, err := stream.Accept(frame)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := UnpackIV(payload)
				if err != nil {
					t.Fatal(err)
				}
				out = out.AppendRecords(recs)
				if last != (c == n-1) {
					t.Fatalf("last flag on chunk %d of %d", c, n)
				}
			}
			if !out.Equal(iv) {
				t.Fatalf("rows=%d chunkRows=%d: reassembly mismatch", rows, chunkRows)
			}
		}
	}
}

// TestChunkedEncodeDecodeEquivalence: for every group and every
// sender/receiver pair, the concatenation of the chunk-wise decoded
// payloads equals the monolithic DecodeGroupPacket result.
func TestChunkedEncodeDecodeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		k, r int
		rows int64
	}{
		{4, 2, 600}, {5, 3, 777}, {6, 1, 300}, {3, 2, 90}, {5, 2, 0},
	} {
		stores, _ := buildScenario(t, uint64(tc.k*10+tc.r), tc.k, tc.r, tc.rows)
		for _, m := range combin.Subsets(combin.Range(tc.k), tc.r+1) {
			g := CliqueGroup(m)
			for _, u := range m.Members() {
				whole, err := EncodeGroupPacket(stores[u], g, u)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunkRows := range []int{1, 5, 37, 100000} {
					count := GroupPacketChunkCount(stores[u], g, u, chunkRows)
					for _, k2 := range m.Remove(u).Members() {
						want, err := DecodeGroupPacket(stores[k2], g, k2, u, whole)
						if err != nil {
							t.Fatal(err)
						}
						got := kv.MakeRecords(0)
						for c := 0; c < count; c++ {
							pkt, err := EncodeGroupPacketChunk(stores[u], g, u, chunkRows, c)
							if err != nil {
								t.Fatal(err)
							}
							seg, err := DecodeGroupPacketChunk(stores[k2], g, k2, u, chunkRows, c, pkt)
							if err != nil {
								t.Fatalf("k=%d r=%d group %v u=%d k2=%d chunkRows=%d chunk %d: %v",
									tc.k, tc.r, m, u, k2, chunkRows, c, err)
							}
							got = got.AppendRecords(seg)
						}
						if !got.Equal(want) {
							t.Fatalf("k=%d r=%d group %v u=%d k2=%d chunkRows=%d: chunked decode differs (%d vs %d records)",
								tc.k, tc.r, m, u, k2, chunkRows, got.Len(), want.Len())
						}
					}
				}
			}
		}
	}
}

func TestPacketChunkCountCoversWidestSegment(t *testing.T) {
	stores, _ := buildScenario(t, 11, 5, 2, 900)
	g := CliqueGroup(combin.NewSet(0, 1, 2))
	// One extra chunk index past the count must be empty for every segment.
	for _, u := range g.Members {
		count := GroupPacketChunkCount(stores[u], g, u, 10)
		if count < 1 {
			t.Fatalf("chunk count %d", count)
		}
		pkt, err := EncodeGroupPacketChunk(stores[u], g, u, 10, count)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt) != frameHeader {
			t.Fatalf("chunk past the count is non-empty: %d bytes", len(pkt))
		}
	}
}

func TestChunkCodecErrors(t *testing.T) {
	stores, _ := buildScenario(t, 12, 4, 2, 200)
	g := CliqueGroup(combin.NewSet(0, 1, 2))
	if _, err := EncodeGroupPacketChunk(stores[3], g, 3, 10, 0); err == nil {
		t.Fatalf("encode by non-member accepted")
	}
	if _, err := EncodeGroupPacketChunk(stores[0], g, 0, 0, 0); err == nil {
		t.Fatalf("chunkRows=0 accepted")
	}
	if _, err := EncodeGroupPacketChunk(stores[0], g, 0, 10, -1); err == nil {
		t.Fatalf("negative chunk accepted")
	}
	pkt, err := EncodeGroupPacketChunk(stores[0], g, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGroupPacketChunk(stores[1], g, 1, 1, 10, 0, pkt); err == nil {
		t.Fatalf("k == u accepted")
	}
	if _, err := DecodeGroupPacketChunk(stores[1], g, 1, 0, 0, 0, pkt); err == nil {
		t.Fatalf("chunkRows=0 decode accepted")
	}
	if _, err := DecodeGroupPacketChunk(stores[1], g, 1, 0, 10, 0, pkt[:2]); err == nil {
		t.Fatalf("truncated chunk packet accepted")
	}
}

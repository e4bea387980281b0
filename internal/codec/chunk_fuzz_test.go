package codec

import (
	"bytes"
	"testing"

	"codedterasort/internal/combin"
)

// FuzzOpenChunk: arbitrary bytes from the wire must open to a consistent
// (seq, last, payload) triple or fail — never panic, and never disagree
// with re-framing.
func FuzzOpenChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, chunkHeaderSize))
	f.Add(FrameChunk(0, true, nil))
	f.Add(FrameChunk(7, false, PackIV(gen(1, 3))))
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		seq, last, payload, err := OpenChunk(frame)
		if err != nil {
			return
		}
		if len(payload) != len(frame)-chunkHeaderSize {
			t.Fatalf("payload %d bytes from %d-byte frame", len(payload), len(frame))
		}
		// Round-trip: re-framing the opened chunk reproduces the input.
		if !bytes.Equal(FrameChunk(seq, last, payload), frame) {
			t.Fatalf("re-framing changed the bytes")
		}
	})
}

// FuzzChunkStream: a stream fed arbitrary frames must accept only an
// in-order prefix; any gap, repeat, flag garbage, truncation or
// post-final chunk must error without panicking.
func FuzzChunkStream(f *testing.F) {
	ordered := append(FrameChunk(0, false, []byte{1}), FrameChunk(1, true, []byte{2})...)
	f.Add(ordered, uint8(2))
	f.Add(append([]byte(nil), FrameChunk(1, false, nil)...), uint8(1)) // gap
	f.Add(append(FrameChunk(0, true, nil), FrameChunk(1, true, nil)...), uint8(2))
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 0, 0}, uint8(1)) // bad flags
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8) {
		// Interpret data as a concatenation of up to nRaw equal slices and
		// feed them as frames; the stream must enforce seq order.
		n := int(nRaw%8) + 1
		var s ChunkStream
		want := uint32(0)
		for i := 0; i < n; i++ {
			lo, hi := len(data)*i/n, len(data)*(i+1)/n
			frame := data[lo:hi]
			payload, last, err := s.Accept(frame)
			if err != nil {
				return
			}
			seq, last2, payload2, err2 := OpenChunk(frame)
			if err2 != nil {
				t.Fatalf("Accept passed a frame OpenChunk rejects: %v", err2)
			}
			if seq != want || last != last2 || !bytes.Equal(payload, payload2) {
				t.Fatalf("accepted chunk seq %d (want %d)", seq, want)
			}
			want++
			if last && i < n-1 {
				// Anything after the final chunk must be rejected.
				if _, _, err := s.Accept(frame); err == nil {
					t.Fatalf("chunk accepted after final")
				}
				return
			}
		}
	})
}

// FuzzDecodePacketChunk: corrupted or adversarial chunked coded packets
// must decode to an error or a record-aligned segment — never panic — on
// the cancelling three-member path and the zero-copy two-member path.
func FuzzDecodePacketChunk(f *testing.F) {
	stores, _ := buildScenarioQuick(7, 4, 2, 400)
	g := CliqueGroup(combin.NewSet(0, 1, 2))
	good, err := EncodeGroupPacketChunk(stores[0], g, 0, 16, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, 16, 0)
	f.Add([]byte{}, 1, 0)
	f.Add(make([]byte, 4), 3, 2)
	bad := append([]byte(nil), good...)
	if len(bad) > 0 {
		bad[0] ^= 0xFF
	}
	f.Add(bad, 16, 0)
	pair := CliqueGroup(combin.NewSet(0, 1))
	goodPair, badPair := pairCorruptions()
	f.Add(goodPair, 8, 0)
	for _, p := range badPair {
		f.Add(p, 8, 0)
	}
	f.Fuzz(func(t *testing.T, packet []byte, chunkRows, chunk int) {
		if seg, err := DecodeGroupPacketChunk(stores[1], g, 1, 0, chunkRows, chunk, packet); err == nil && seg.Size()%100 != 0 {
			t.Fatalf("decoded misaligned segment of %d bytes", seg.Size())
		}
		if seg, err := DecodeGroupPacketChunk(IVMap{}, pair, 1, 0, chunkRows, chunk, packet); err == nil && seg.Size()%100 != 0 {
			t.Fatalf("two-member decode opened a misaligned segment of %d bytes", seg.Size())
		}
	})
}

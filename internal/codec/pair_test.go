package codec

import (
	"encoding/binary"
	"testing"

	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
)

// flipAll inverts every byte of buf.
func flipAll(buf []byte) {
	for i := range buf {
		buf[i] ^= 0xFF
	}
}

// TestTwoMemberGroupIsIdentityCoded: in a two-member group (the r = 1
// endpoint: the file of one node, needed by the other) a packet has a
// single term and a decode no cancellation, so the packet is exactly the
// packed size of the intermediate value, decoding returns it unchanged, and
// the result aliases the received packet instead of copying it — monolithic
// and chunked alike. A larger group's decode must keep copying: its packet
// stays usable after the call.
func TestTwoMemberGroupIsIdentityCoded(t *testing.T) {
	stores, truth := buildScenario(t, 3, 4, 1, 600)
	pair := CliqueGroup(combin.NewSet(1, 2))
	iv := truth.IV(2, combin.NewSet(1)) // what node 2 needs from node 1
	if iv.Len() == 0 {
		t.Fatal("degenerate scenario: empty intermediate value")
	}

	p, err := EncodeGroupPacket(stores[1], pair, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != PackedSize(iv.Len()) {
		t.Fatalf("packet of %d bytes, want the packed size %d", len(p), PackedSize(iv.Len()))
	}
	seg, err := DecodeGroupPacket(stores[2], pair, 2, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Equal(iv) {
		t.Fatal("two-member round trip changed the records")
	}
	flipAll(p[frameHeader:])
	if seg.Equal(iv) {
		t.Fatal("two-member decode copied the packet instead of aliasing it")
	}

	const chunkRows = 16
	count := GroupPacketChunkCount(stores[1], pair, 1, chunkRows)
	if count != NumChunks(iv.Len(), chunkRows) {
		t.Fatalf("%d chunks for %d rows", count, iv.Len())
	}
	got := kv.MakeRecords(0)
	for c := 0; c < count; c++ {
		pc, err := EncodeGroupPacketChunk(stores[1], pair, 1, chunkRows, c)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := ChunkSpan(iv.Len(), chunkRows, c)
		if len(pc) != PackedSize(hi-lo) {
			t.Fatalf("chunk %d packet of %d bytes, want %d", c, len(pc), PackedSize(hi-lo))
		}
		part, err := DecodeGroupPacketChunk(stores[2], pair, 2, 1, chunkRows, c, pc)
		if err != nil {
			t.Fatal(err)
		}
		got = got.AppendRecords(part)
		flipAll(pc[frameHeader:])
		if part.Equal(iv.Slice(lo, hi)) {
			t.Fatalf("chunk %d decode copied the packet instead of aliasing it", c)
		}
	}
	if !got.Equal(iv) {
		t.Fatal("chunked two-member round trip changed the records")
	}

	// A three-member group cancels side information on a private copy.
	stores3, truth3 := buildScenario(t, 3, 4, 2, 600)
	m := combin.NewSet(0, 1, 2)
	g := CliqueGroup(m)
	p3, err := EncodeGroupPacket(stores3[0], g, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg3, err := DecodeGroupPacket(stores3[1], g, 1, 0, p3)
	if err != nil {
		t.Fatal(err)
	}
	want3 := Segment(truth3.IV(1, m.Remove(1)), 2, m.Remove(1).Index(0))
	flipAll(p3)
	if !seg3.Equal(want3) {
		t.Fatal("three-member decode aliases the packet")
	}
	pc3, err := EncodeGroupPacketChunk(stores3[0], g, 0, chunkRows, 0)
	if err != nil {
		t.Fatal(err)
	}
	part3, err := DecodeGroupPacketChunk(stores3[1], g, 1, 0, chunkRows, 0, pc3)
	if err != nil {
		t.Fatal(err)
	}
	wantPart3 := chunkOf(want3, chunkRows, 0)
	flipAll(pc3)
	if !part3.Equal(wantPart3) {
		t.Fatal("three-member chunk decode aliases the packet")
	}
}

// pairCorruptions returns a valid two-member packet and the corruptions the
// zero-copy decode must reject: a corrupt header, an over-long declared
// length and a declared length that is not record-aligned.
func pairCorruptions() (good []byte, bad [][]byte) {
	good = encode([]kv.Records{gen(5, 3)})
	flipped := append([]byte(nil), good...)
	flipped[0] ^= 0x80
	long := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(long, uint32(len(good)))
	ragged := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(ragged, uint32(len(good)-frameHeader-1))
	return good, [][]byte{flipped, long, ragged, {}, make([]byte, frameHeader-1)}
}

// TestTwoMemberDecodeRejectsCorruptPackets: with no copy to hide behind,
// the in-place open must still refuse malformed frames.
func TestTwoMemberDecodeRejectsCorruptPackets(t *testing.T) {
	pair := CliqueGroup(combin.NewSet(0, 1))
	good, bad := pairCorruptions()
	if _, err := DecodeGroupPacket(IVMap{}, pair, 1, 0, good); err != nil {
		t.Fatal(err)
	}
	for i, p := range bad {
		if _, err := DecodeGroupPacket(IVMap{}, pair, 1, 0, p); err == nil {
			t.Fatalf("corruption %d decoded without error", i)
		}
		if _, err := DecodeGroupPacketChunk(IVMap{}, pair, 1, 0, 8, 0, p); err == nil {
			t.Fatalf("corruption %d chunk-decoded without error", i)
		}
	}
}

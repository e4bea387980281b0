package codec

import (
	"testing"

	"codedterasort/internal/combin"
)

// FuzzUnpackIV: arbitrary bytes from the wire must produce either a valid
// record buffer or an error — never a panic or a misaligned buffer.
func FuzzUnpackIV(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(PackIV(gen(1, 3)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := UnpackIV(payload)
		if err != nil {
			return
		}
		if r.Size()%100 != 0 {
			t.Fatalf("accepted misaligned buffer of %d bytes", r.Size())
		}
		if r.Len() != (len(payload)-4)/100 {
			t.Fatalf("record count %d inconsistent with payload %d", r.Len(), len(payload))
		}
	})
}

// FuzzDecodePacket: a corrupted or adversarial coded packet must decode to
// an error or a record-aligned segment — never panic — both through the
// cancelling decode of a three-member group and the zero-copy in-place open
// of a two-member one.
func FuzzDecodePacket(f *testing.F) {
	stores, _ := buildScenarioQuick(7, 4, 2, 400)
	g := CliqueGroup(combin.NewSet(0, 1, 2))
	good, err := EncodeGroupPacket(stores[0], g, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 4))
	bad := append([]byte(nil), good...)
	if len(bad) > 0 {
		bad[0] ^= 0xFF
	}
	f.Add(bad)
	pair := CliqueGroup(combin.NewSet(0, 1))
	goodPair, badPair := pairCorruptions()
	f.Add(goodPair)
	for _, p := range badPair {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, packet []byte) {
		if seg, err := DecodeGroupPacket(stores[1], g, 1, 0, packet); err == nil && seg.Size()%100 != 0 {
			t.Fatalf("decoded misaligned segment of %d bytes", seg.Size())
		}
		if seg, err := DecodeGroupPacket(IVMap{}, pair, 1, 0, packet); err == nil && seg.Size()%100 != 0 {
			t.Fatalf("two-member decode opened a misaligned segment of %d bytes", seg.Size())
		}
	})
}

// FuzzFrameOpen: openFrame on arbitrary bytes.
func FuzzFrameOpen(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add(AppendFrame(nil, gen(1, 1).Bytes(), FrameSize(100)))
	f.Fuzz(func(t *testing.T, frame []byte) {
		seg, err := openFrame(frame)
		if err != nil {
			return
		}
		if len(seg)%100 != 0 {
			t.Fatalf("accepted misaligned segment")
		}
	})
}

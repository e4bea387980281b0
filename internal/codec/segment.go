package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"codedterasort/internal/kv"
)

// A coded packet can travel as a run of segments, so that a relay forwards
// one while the root sends the next. Segments cut the packet every segRows
// records of its body: segment 0 is the frame header and the first segRows
// records, segment s > 0 the records [s*segRows, (s+1)*segRows). A segment
// shorter than that closes the packet — an empty one when the body is a
// whole number of segments — so a receiver needs no length up front.
// segRows <= 0 leaves a packet whole: one segment, the packet itself.

// PacketSegment returns segment s of packet cut every segRows records, and
// whether it is the packet's last. The segment aliases packet.
func PacketSegment(packet []byte, segRows, s int) (seg []byte, last bool) {
	if segRows <= 0 {
		return packet, true
	}
	lo, hi := 0, frameHeader+(s+1)*segRows*kv.RecordSize
	if s > 0 {
		lo = hi - segRows*kv.RecordSize
	}
	return packet[min(lo, len(packet)):min(hi, len(packet))], hi > len(packet)
}

// PacketEncoder is Algorithm 1 a segment at a time: it builds the coded
// packet node k multicasts in group g, cut every segRows records, into a
// buffer of Size bytes one segment at a time, so a sender can put each
// segment on the wire as soon as it is built. The segments together are
// the bytes EncodeGroupPacket builds, and distinct segments may be built
// concurrently.
type PacketEncoder struct {
	terms   []kv.View
	size    int
	segRows int
}

// NewPacketEncoder returns the encoder of the packet node k sends in group
// g, cut every segRows records (segRows <= 0: whole).
func NewPacketEncoder(store IVStore, g Group, k, segRows int) (*PacketEncoder, error) {
	ik, err := g.check(k)
	if err != nil {
		return nil, err
	}
	terms := g.terms(store, ik, -1, 0, 0)
	return &PacketEncoder{terms: terms, size: packetWidth(terms), segRows: max(segRows, 0)}, nil
}

// Size returns the packet's length in bytes.
func (e *PacketEncoder) Size() int { return e.size }

// Buffer returns a pooled buffer of Size bytes to build the packet in.
// Recycle it once the packet is sent.
func (e *PacketEncoder) Buffer() []byte { return getBuf(e.size) }

// Segments returns the number of segments the packet travels as.
func (e *PacketEncoder) Segments() int {
	if e.segRows == 0 {
		return 1
	}
	return e.bodyRows()/e.segRows + 1
}

func (e *PacketEncoder) bodyRows() int { return (e.size - frameHeader) / kv.RecordSize }

// EncodeSegment builds segment s of the packet in packet, which is Size()
// bytes, and returns it as PacketSegment does: aliasing packet, and whether
// it is the last.
func (e *PacketEncoder) EncodeSegment(packet []byte, s int) (seg []byte, last bool) {
	lo, hi := 0, e.bodyRows()
	if e.segRows > 0 {
		lo, hi = min(s*e.segRows, hi), min((s+1)*e.segRows, hi)
	}
	encodeRows(packet, e.terms, s == 0, lo, hi)
	return PacketSegment(packet, e.segRows, s)
}

// SegmentDecoder is Algorithm 2 on a packet that arrives in segments: it
// recovers node k's segment of the packet node u sends in group g one
// packet segment at a time, each cancelled where it landed, as
// DecodeGroupPacketInPlace does for a whole packet. Fed the segments of one
// packet in order, it returns the same records, cut at segment bounds.
type SegmentDecoder struct {
	terms   []kv.View // the side information, node k's segments u of the other IVs
	segRows int
	next    int // the segment expected next
	rows    int // node k's record count, declared by the frame header
	done    bool
}

// NewSegmentDecoder returns the decoder of the packet node k receives from
// node u in group g, cut every segRows records (segRows <= 0: whole).
func NewSegmentDecoder(store IVStore, g Group, k, u, segRows int) (*SegmentDecoder, error) {
	ik, iu, err := g.decoderPositions(k, u)
	if err != nil {
		return nil, err
	}
	if segRows <= 0 {
		// A whole packet is one segment no body fills.
		segRows = math.MaxInt32
	}
	return &SegmentDecoder{terms: g.terms(store, iu, ik, 0, 0), segRows: segRows}, nil
}

// Decode cancels the side information from seg, the packet's next segment,
// in seg itself, and returns the records of node k's segment it carries,
// which alias seg; last reports that seg closed the packet. After an error
// the segment's contents are unspecified.
func (d *SegmentDecoder) Decode(seg []byte) (recs kv.Records, last bool, err error) {
	if d.done {
		return kv.Records{}, false, fmt.Errorf("codec: segment %d after the packet closed", d.next)
	}
	s := d.next
	d.next++
	body := seg
	if s == 0 {
		if len(seg) < frameHeader {
			return kv.Records{}, false, fmt.Errorf("codec: first segment of %d bytes lacks header", len(seg))
		}
		body = seg[frameHeader:]
	}
	if len(body)%kv.RecordSize != 0 || len(body) > d.segRows*kv.RecordSize {
		return kv.Records{}, false, fmt.Errorf("codec: segment %d carries %d bytes, not up to %d records",
			s, len(body), d.segRows)
	}
	lo := s * d.segRows
	hi := lo + len(body)/kv.RecordSize
	for _, t := range d.terms {
		if s == 0 {
			binary.BigEndian.PutUint32(seg, binary.BigEndian.Uint32(seg)^uint32(t.Size()))
		}
		if a, b := min(lo, t.Len()), min(hi, t.Len()); a < b {
			t.Slice(a, b).XORInto(body)
		}
	}
	if s == 0 {
		n := int(binary.BigEndian.Uint32(seg))
		if n%kv.RecordSize != 0 {
			return kv.Records{}, false, fmt.Errorf("codec: decoded segment of %d bytes is not record-aligned", n)
		}
		d.rows = n / kv.RecordSize
	}
	mine := min(max(d.rows-lo, 0), hi-lo) * kv.RecordSize
	// Padding beyond node k's records must have cancelled to zero.
	for _, b := range body[mine:] {
		if b != 0 {
			return kv.Records{}, false, fmt.Errorf("codec: non-zero padding after decode; side information mismatch")
		}
	}
	if last = hi-lo < d.segRows; last {
		d.done = true
		if d.rows > hi {
			return kv.Records{}, true, fmt.Errorf("codec: frame declares %d bytes but carries %d",
				d.rows*kv.RecordSize, hi*kv.RecordSize)
		}
		for _, t := range d.terms {
			if t.Len() > hi {
				return kv.Records{}, true, fmt.Errorf("codec: side-information segment (%d bytes) wider than packet (%d)",
					t.Size(), FrameSize(hi*kv.RecordSize))
			}
		}
	}
	recs, err = kv.NewRecords(body[:mine])
	return recs, last, err
}

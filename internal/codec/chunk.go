package codec

import (
	"encoding/binary"
	"fmt"

	"codedterasort/internal/kv"
)

// Chunk framing for the streaming pipelined shuffle. A monolithic shuffle
// payload (a packed intermediate value, or one coded packet) is split into
// fixed-row chunks so the sender can overlap Pack/Encode of chunk n+1 with
// the flight of chunk n, and the receiver can Unpack/Decode each chunk as it
// arrives instead of buffering the whole stream. Each chunk travels as
//
//	[uint32 seq][uint8 flags][uint32 payload len][payload]
//
// The sequence number starts at 0 per stream and increments by one; the
// explicit length lets the receiver reject truncated frames; flag bit 0
// marks the final chunk of the stream, so the receiver never needs to know
// the chunk count in advance (for coded packets it cannot: the width of the
// segment it is decoding is exactly what it does not know yet).
const (
	chunkHeaderSize = 9
	chunkFlagLast   = 0x01
)

// FrameChunk wraps payload in a chunk frame carrying seq and the last-chunk
// flag. The frame comes from the codec buffer pool; senders Recycle it once
// the transport returns (retaining it instead is safe, just unpooled).
func FrameChunk(seq uint32, last bool, payload []byte) []byte {
	out := getBuf(chunkHeaderSize + len(payload))
	binary.BigEndian.PutUint32(out, seq)
	if last {
		out[4] = chunkFlagLast
	} else {
		out[4] = 0
	}
	binary.BigEndian.PutUint32(out[5:], uint32(len(payload)))
	copy(out[chunkHeaderSize:], payload)
	return out
}

// OpenChunk validates and strips a chunk frame, returning its sequence
// number, last-chunk flag and payload (aliased, not copied).
func OpenChunk(frame []byte) (seq uint32, last bool, payload []byte, err error) {
	if len(frame) < chunkHeaderSize {
		return 0, false, nil, fmt.Errorf("codec: chunk frame of %d bytes lacks header", len(frame))
	}
	seq = binary.BigEndian.Uint32(frame)
	flags := frame[4]
	if flags&^chunkFlagLast != 0 {
		return 0, false, nil, fmt.Errorf("codec: chunk frame with unknown flags %#x", flags)
	}
	n := int(binary.BigEndian.Uint32(frame[5:]))
	if n != len(frame)-chunkHeaderSize {
		return 0, false, nil, fmt.Errorf("codec: chunk frame declares %d payload bytes but carries %d",
			n, len(frame)-chunkHeaderSize)
	}
	return seq, flags&chunkFlagLast != 0, frame[chunkHeaderSize:], nil
}

// ChunkFrameSize returns the wire size of a chunk frame with payloadBytes of
// payload.
func ChunkFrameSize(payloadBytes int) int { return chunkHeaderSize + payloadBytes }

// ChunkStream validates the arrival order of one chunk stream: sequence
// numbers must run 0,1,2,... and nothing may follow the last-flagged chunk.
// The transport delivers one (src,dst,tag) flow in order, so a gap or
// repeat means corruption or a protocol bug, never legitimate reordering.
type ChunkStream struct {
	next uint32
	done bool
}

// Accept opens frame and checks it is the next chunk of the stream.
func (s *ChunkStream) Accept(frame []byte) (payload []byte, last bool, err error) {
	seq, last, payload, err := OpenChunk(frame)
	if err != nil {
		return nil, false, err
	}
	if s.done {
		return nil, false, fmt.Errorf("codec: chunk %d after final chunk of stream", seq)
	}
	if seq != s.next {
		return nil, false, fmt.Errorf("codec: chunk out of order: got seq %d, want %d", seq, s.next)
	}
	s.next++
	s.done = last
	return payload, last, nil
}

// Done reports whether the stream has accepted its last chunk.
func (s *ChunkStream) Done() bool { return s.done }

// NumChunks returns the number of ChunkRows-sized chunks covering n records:
// at least one, so empty streams still carry a (last-flagged) chunk that
// closes them.
func NumChunks(n, chunkRows int) int {
	if chunkRows <= 0 {
		panic(fmt.Sprintf("codec: NumChunks chunkRows=%d", chunkRows))
	}
	c := (n + chunkRows - 1) / chunkRows
	if c == 0 {
		c = 1
	}
	return c
}

// ChunkSpan returns the record range [lo,hi) of chunk c in a stream of n
// records split every chunkRows rows. Chunks past the end are empty.
func ChunkSpan(n, chunkRows, c int) (lo, hi int) {
	lo = c * chunkRows
	if lo > n {
		lo = n
	}
	hi = lo + chunkRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// chunkOf returns chunk c of a segment: its records [c*chunkRows,
// (c+1)*chunkRows) clipped to the segment length. Every node derives the
// identical chunking locally, which is what keeps the XOR cancellation
// aligned chunk by chunk.
func chunkOf(seg kv.Records, chunkRows, c int) kv.Records {
	lo, hi := ChunkSpan(seg.Len(), chunkRows, c)
	return seg.Slice(lo, hi)
}

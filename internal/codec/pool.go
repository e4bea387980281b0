package codec

import (
	"sync"

	"codedterasort/internal/kv"
)

// Buffer pooling for the shuffle hot path. Every packet and chunk frame a
// sender builds is about to be fully overwritten, so it comes from a pool
// instead of a cleared make. The transport contract makes pooling safe:
// Send/Bcast do not alias the payload after they return, so a sender can
// Recycle a packet or frame as soon as the call comes back.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a pooled buffer of length n with unspecified contents.
func getBuf(n int) []byte {
	p := bufPool.Get().(*[]byte)
	if cap(*p) < n {
		return make([]byte, n)
	}
	return (*p)[:n]
}

// Recycle returns a buffer obtained from FrameSegmentChunk,
// FrameGroupPacketChunk, the EncodeGroupPacket family, FrameChunk or
// PacketEncoder.Buffer to the pool. Callers recycle only
// once the buffer is dead (for sent frames: after Send/Bcast returns, per
// the transport non-aliasing contract); retaining instead of recycling is
// always safe, just slower.
func Recycle(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	b := buf[:0]
	bufPool.Put(&b)
}

// FrameSegmentChunk builds the chunk frame of a single-segment packet chunk
// in one pooled buffer: [chunk header][frame header][records]. It is the
// fused form of FrameChunk(seq, last, packet) for a packet whose only term
// is seg — what a two-member group streams — copying the records exactly
// once; the out-of-core shuffle sends its spooled blocks with it. Recycle
// the returned buffer after sending.
func FrameSegmentChunk(seq uint32, last bool, seg kv.Records) []byte {
	return frameTerms(seq, last, []kv.View{kv.ViewAll(seg)})
}

// frameTerms builds the chunk frame of the packet of terms in one pooled
// buffer, encoding the packet where the frame carries it.
func frameTerms(seq uint32, last bool, terms []kv.View) []byte {
	out := getChunkFrame(seq, last, packetWidth(terms))
	encodeInto(out[chunkHeaderSize:], terms)
	return out
}

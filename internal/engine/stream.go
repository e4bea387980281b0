package engine

import (
	"codedterasort/internal/codec"
	"codedterasort/internal/kv"
)

// ChunkRx drives one inbound chunk stream to completion: receive a framed
// chunk, return one flow-control credit, validate the frame, decode the
// payload with the engine's codec, and hand the recovered records to the
// consumer — until the last-flagged chunk closes the stream. The protocol
// order matters and is fixed here once: the credit goes back before
// validation, so a decode error on the receive side never wedges the
// sender behind a window that will not reopen.
type ChunkRx struct {
	// Recv returns the next framed chunk (the receiving side of the group
	// Bcast that carries the stream).
	Recv func() ([]byte, error)
	// Ack returns one credit to the stream's sender.
	Ack func() error
	// Decode recovers the chunk's records from its payload; c is the chunk
	// index within the stream. The payload belongs to the receiver, so
	// Decode may work in it and return records that alias it. The callback
	// owns engine-specific error context (source rank, multicast group).
	Decode func(c int, payload []byte) (kv.Records, error)
	// Consume receives each decoded chunk's records in arrival order, and
	// may keep them: nothing reuses the frame they lie in.
	Consume func(kv.Records) error
	// WrapStreamErr adds engine-specific context to chunk-framing errors
	// (nil leaves them unwrapped).
	WrapStreamErr func(error) error
}

// Run consumes the stream, counting each consumed chunk on the counters.
func (rx ChunkRx) Run(counters *Counters) error {
	var stream codec.ChunkStream
	for c := 0; !stream.Done(); c++ {
		frame, err := rx.Recv()
		if err != nil {
			return err
		}
		if err := rx.Ack(); err != nil {
			return err
		}
		payload, _, err := stream.Accept(frame)
		if err != nil {
			if rx.WrapStreamErr != nil {
				err = rx.WrapStreamErr(err)
			}
			return err
		}
		recs, err := rx.Decode(c, payload)
		if err != nil {
			return err
		}
		if err := rx.Consume(recs); err != nil {
			return err
		}
		counters.ChunkReceived()
	}
	return nil
}

// CreditGate bounds a stream's unacknowledged in-flight chunks. Await
// collects one chunk's worth of credits — one per other member of the
// stream's group, so a single credit when the stream is a unicast;
// Window <= 0 disables flow control.
type CreditGate struct {
	// Window is the in-flight chunk bound.
	Window int
	// Await collects the credits of one in-flight chunk.
	Await func() error

	inflight int
}

// Reserve blocks until the window has room for one more chunk.
func (g *CreditGate) Reserve() error {
	if g.Window > 0 && g.inflight >= g.Window {
		if err := g.Await(); err != nil {
			return err
		}
		g.inflight--
	}
	return nil
}

// Sent marks one chunk in flight.
func (g *CreditGate) Sent() {
	if g.Window > 0 {
		g.inflight++
	}
}

// Drain collects the credits of all still-unacknowledged chunks, so no
// credit messages are left in flight when the stream's tags are reused or
// the job tears down.
func (g *CreditGate) Drain() error {
	for ; g.inflight > 0; g.inflight-- {
		if err := g.Await(); err != nil {
			return err
		}
	}
	return nil
}

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

package transport

// Windowed streaming for the pipelined chunked shuffle. Send is
// asynchronous (MPI eager mode), so a sender that frames its data into
// chunks could otherwise run arbitrarily far ahead of the receiver,
// buffering the whole stream in the transport and defeating the point of
// chunking. StreamSender bounds the run-ahead: the receiver returns one
// empty credit message per consumed chunk, and the sender blocks once
// `window` chunks are unacknowledged, capping peak buffered memory at
// O(chunk size x window) per stream. Every chunk is one transport message,
// so the Meter accounts the stream chunk by chunk (per-chunk message counts
// and bytes) with no extra hooks.
//
// The sort engine windows its streams with engine.CreditGate, whose
// one-member await covers unicast; StreamSender stays only because the
// repository benchmark's transport probe (bench/probe_transport.go)
// measures the meshes through it.
type StreamSender struct {
	c        Conn
	to       int
	dataTag  Tag
	ackTag   Tag
	window   int
	inflight int
}

// NewStreamSender returns a windowed sender of one chunk stream to peer
// `to`. Data travels under dataTag; credits return under ackTag (the
// receiver must Ack each chunk with the same tag). window <= 0 disables
// flow control: sends never block and no credits are consumed.
func NewStreamSender(c Conn, to int, dataTag, ackTag Tag, window int) *StreamSender {
	return &StreamSender{c: c, to: to, dataTag: dataTag, ackTag: ackTag, window: window}
}

// Send ships one chunk, first blocking for a credit if the window is full.
func (s *StreamSender) Send(payload []byte) error {
	if s.window > 0 && s.inflight >= s.window {
		if _, err := s.c.Recv(s.to, s.ackTag); err != nil {
			return err
		}
		s.inflight--
	}
	if err := s.c.Send(s.to, s.dataTag, payload); err != nil {
		return err
	}
	if s.window > 0 {
		s.inflight++
	}
	return nil
}

// Drain consumes the credits of all still-unacknowledged chunks. Call it
// after the final chunk so no credit messages are left in flight when the
// stream's tags are reused or the job tears down.
func (s *StreamSender) Drain() error {
	for ; s.inflight > 0; s.inflight-- {
		if _, err := s.c.Recv(s.to, s.ackTag); err != nil {
			return err
		}
	}
	return nil
}

// StreamAck returns one credit to the stream's sender. Receivers call it
// once per consumed chunk, before validating the chunk's contents — a
// credit is flow control, not an integrity acknowledgement, and acking
// first keeps a sender from blocking forever behind a receiver that hit a
// decode error.
func StreamAck(c Conn, to int, ackTag Tag) error {
	return c.Send(to, ackTag, nil)
}

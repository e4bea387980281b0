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
// CreditGate is the window itself; the sort engine's multicast streams use
// it directly, collecting one credit per other group member for each
// chunk. StreamSender is the unicast stream on top of it, through which
// the repository benchmark's transport probe (bench/probe_transport.go)
// measures the meshes.
type StreamSender struct {
	c       Conn
	to      int
	dataTag Tag
	gate    CreditGate
}

// NewStreamSender returns a windowed sender of one chunk stream to peer
// `to`. Data travels under dataTag; credits return under ackTag (the
// receiver must Ack each chunk with the same tag). window <= 0 disables
// flow control: sends never block and no credits are consumed.
func NewStreamSender(c Conn, to int, dataTag, ackTag Tag, window int) *StreamSender {
	return &StreamSender{c: c, to: to, dataTag: dataTag, gate: CreditGate{Window: window, Await: func() error {
		_, err := c.Recv(to, ackTag)
		return err
	}}}
}

// Send ships one chunk, first blocking for a credit if the window is full.
func (s *StreamSender) Send(payload []byte) error {
	if err := s.gate.Reserve(); err != nil {
		return err
	}
	if err := s.c.Send(s.to, s.dataTag, payload); err != nil {
		return err
	}
	s.gate.Sent()
	return nil
}

// Drain consumes the credits of all still-unacknowledged chunks. Call it
// after the final chunk so no credit messages are left in flight when the
// stream's tags are reused or the job tears down.
func (s *StreamSender) Drain() error { return s.gate.Drain() }

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

// StreamAck returns one credit to the stream's sender. Receivers call it
// once per consumed chunk, before validating the chunk's contents — a
// credit is flow control, not an integrity acknowledgement, and acking
// first keeps a sender from blocking forever behind a receiver that hit a
// decode error.
func StreamAck(c Conn, to int, ackTag Tag) error {
	return c.Send(to, ackTag, nil)
}

package transport

import "sync/atomic"

// Counters is a snapshot of wire-level traffic through a Meter.
// SentBytes counts payload bytes pushed by this node: what actually crosses
// its NIC. A multicast to r receivers puts r payload copies on the wire —
// the paper's distinction between the communication load, which counts a
// multicast packet once, and the wire traffic behind application-layer
// multicast. The chain relay spreads those copies over the group: the root
// and each relay send one, the last member none, so a rank's wire bytes
// include the packets it relays and the totals over all ranks are r copies
// per packet.
type Counters struct {
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
	RecvBytes int64
}

// Add returns the element-wise sum of two snapshots.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		SentMsgs:  c.SentMsgs + o.SentMsgs,
		SentBytes: c.SentBytes + o.SentBytes,
		RecvMsgs:  c.RecvMsgs + o.RecvMsgs,
		RecvBytes: c.RecvBytes + o.RecvBytes,
	}
}

// Meter wraps a Conn and counts traffic. It is safe for concurrent use.
type Meter struct {
	inner     Conn
	sentMsgs  atomic.Int64
	sentBytes atomic.Int64
	recvMsgs  atomic.Int64
	recvBytes atomic.Int64
}

// NewMeter returns a metering wrapper around c.
func NewMeter(c Conn) *Meter { return &Meter{inner: c} }

// Rank implements Conn.
func (m *Meter) Rank() int { return m.inner.Rank() }

// Size implements Conn.
func (m *Meter) Size() int { return m.inner.Size() }

// Send implements Conn, counting the message and payload bytes.
func (m *Meter) Send(to int, tag Tag, payload []byte) error {
	if err := m.inner.Send(to, tag, payload); err != nil {
		return err
	}
	m.sentMsgs.Add(1)
	m.sentBytes.Add(int64(len(payload)))
	return nil
}

// Recv implements Conn, counting the message and payload bytes.
func (m *Meter) Recv(from int, tag Tag) ([]byte, error) {
	p, err := m.inner.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	m.recvMsgs.Add(1)
	m.recvBytes.Add(int64(len(p)))
	return p, nil
}

// Close implements Conn.
func (m *Meter) Close() error { return m.inner.Close() }

// Counters returns the current traffic snapshot.
func (m *Meter) Counters() Counters {
	return Counters{
		SentMsgs:  m.sentMsgs.Load(),
		SentBytes: m.sentBytes.Load(),
		RecvMsgs:  m.recvMsgs.Load(),
		RecvBytes: m.recvBytes.Load(),
	}
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.sentMsgs.Store(0)
	m.sentBytes.Store(0)
	m.recvMsgs.Store(0)
	m.recvBytes.Store(0)
}

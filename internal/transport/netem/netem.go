// Package netem emulates network conditions on top of any transport.Conn,
// playing the role of the `tc` traffic shaping in the paper's EC2 setup
// (Section V-B limits every instance to 100 Mbps so that shuffle time is
// bandwidth-dominated and stable). Limiter serializes a node's egress at a
// configured line rate with an optional per-message overhead, so serial
// unicast and serial multicast schedules see realistic transmission times
// at laptop scale. Faulty injects deterministic send failures for
// error-propagation tests.
package netem

import (
	"sync"
	"time"

	"codedterasort/internal/transport"
)

// Options configures a Limiter.
type Options struct {
	// RateMbps is the egress line rate in megabits per second.
	// Zero means unlimited (no transmission delay).
	RateMbps float64
	// PerMessage is a fixed serialization/setup overhead charged per
	// message (connection bring-up, MPI envelope handling, kernel
	// crossings) in addition to byte transmission time.
	PerMessage time.Duration
	// SlowFactor multiplies all delays; 0 or 1 means no slowdown.
	// Values above 1 model a straggler node.
	SlowFactor float64
}

// Limiter wraps a Conn and blocks each Send for the time the message would
// occupy a serial egress link at the configured rate. A Send holds the link
// from its reservation until its delivery, so concurrent sends on one
// Limiter queue behind each other, like frames on a single NIC, and reach
// the inner Conn in the order they took it: a token or an ack never
// overtakes the data queued before it.
//
// The time the Limiter itself spends delivering a message — the sleeper's
// overshoot and the inner transport's copy — is not idle line time: the
// next reservation starts that much before its Send takes the link, so a
// sender that keeps up, or a Send queued behind another, finds the line
// where the last message left it and the link runs back to back.
// Occupancy per message is exact, reservations never overlap, and a message
// is never delivered more than sleepGranularity before its reservation
// ends, so the long-run rate never exceeds RateMbps and n bytes sent back
// to back take at least their line time less sleepGranularity.
type Limiter struct {
	inner transport.Conn
	opts  Options

	// link is the link lock, held from reservation to delivery: a one-slot
	// channel rather than a mutex, so that a Send queued behind another
	// blocks on a channel, which a fake clock (testing/synctest) counts as
	// blocked while the holder sleeps out its line time.
	link     chan struct{}
	nextFree time.Time     // when the last reservation ends
	late     time.Duration // how long after nextFree its message was delivered
}

// Limit wraps c with egress shaping.
func Limit(c transport.Conn, opts Options) *Limiter {
	if opts.SlowFactor == 0 {
		opts.SlowFactor = 1
	}
	return &Limiter{inner: c, opts: opts, link: make(chan struct{}, 1)}
}

// Rank implements transport.Conn.
func (l *Limiter) Rank() int { return l.inner.Rank() }

// Size implements transport.Conn.
func (l *Limiter) Size() int { return l.inner.Size() }

// TransmitTime returns the modeled wire occupancy of a message of n bytes.
func (l *Limiter) TransmitTime(n int) time.Duration {
	d := l.opts.PerMessage
	if l.opts.RateMbps > 0 {
		seconds := float64(n) * 8 / (l.opts.RateMbps * 1e6)
		d += time.Duration(seconds * float64(time.Second))
	}
	return time.Duration(float64(d) * l.opts.SlowFactor)
}

// sleepGranularity is the smallest debt worth sleeping for. Sub-millisecond
// sleeps round up badly on most kernels, which would overcharge workloads
// of many small messages; instead short occupancies accumulate in nextFree
// and one longer sleep settles the debt, preserving the long-run rate.
const sleepGranularity = time.Millisecond

// Send implements transport.Conn: it takes the link, reserves it for the
// message's transmission time, sleeps until the reservation ends, and then
// delivers through the inner transport.
func (l *Limiter) Send(to int, tag transport.Tag, payload []byte) error {
	l.link <- struct{}{}
	defer func() { <-l.link }()
	if start := time.Now().Add(-l.late); l.nextFree.Before(start) {
		l.nextFree = start
	}
	l.nextFree = l.nextFree.Add(l.TransmitTime(len(payload)))
	if wait := time.Until(l.nextFree); wait > sleepGranularity {
		time.Sleep(wait)
	}
	err := l.inner.Send(to, tag, payload)
	l.late = max(time.Since(l.nextFree), 0)
	return err
}

// Recv implements transport.Conn (ingress is not shaped: with serial
// schedules and symmetric rates, egress shaping already bounds end-to-end
// throughput the way the paper's bidirectional tc cap does).
func (l *Limiter) Recv(from int, tag transport.Tag) ([]byte, error) {
	return l.inner.Recv(from, tag)
}

// Close implements transport.Conn.
func (l *Limiter) Close() error { return l.inner.Close() }

// Faulty wraps a Conn and makes Send fail permanently after a configured
// number of successful sends — deterministic fault injection for testing
// how stage drivers surface transport errors.
type Faulty struct {
	inner     transport.Conn
	mu        sync.Mutex
	remaining int
	err       error
}

// Fail returns a Conn whose Send succeeds successes times and then always
// returns err.
func Fail(c transport.Conn, successes int, err error) *Faulty {
	return &Faulty{inner: c, remaining: successes, err: err}
}

// Rank implements transport.Conn.
func (f *Faulty) Rank() int { return f.inner.Rank() }

// Size implements transport.Conn.
func (f *Faulty) Size() int { return f.inner.Size() }

// Send implements transport.Conn with the failure schedule.
func (f *Faulty) Send(to int, tag transport.Tag, payload []byte) error {
	f.mu.Lock()
	if f.remaining <= 0 {
		f.mu.Unlock()
		return f.err
	}
	f.remaining--
	f.mu.Unlock()
	return f.inner.Send(to, tag, payload)
}

// Recv implements transport.Conn.
func (f *Faulty) Recv(from int, tag transport.Tag) ([]byte, error) {
	return f.inner.Recv(from, tag)
}

// Close implements transport.Conn.
func (f *Faulty) Close() error { return f.inner.Close() }

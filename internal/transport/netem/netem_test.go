package netem

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

func TestTransmitTime(t *testing.T) {
	l := Limit(nil, Options{RateMbps: 100})
	// 12.5 MB at 100 Mbps = 1 s.
	if got := l.TransmitTime(12_500_000); got != time.Second {
		t.Fatalf("TransmitTime = %v, want 1s", got)
	}
	l2 := Limit(nil, Options{RateMbps: 100, PerMessage: 50 * time.Millisecond})
	if got := l2.TransmitTime(0); got != 50*time.Millisecond {
		t.Fatalf("per-message = %v", got)
	}
	l3 := Limit(nil, Options{})
	if got := l3.TransmitTime(1 << 30); got != 0 {
		t.Fatalf("unlimited rate should be instant, got %v", got)
	}
	l4 := Limit(nil, Options{RateMbps: 100, SlowFactor: 2})
	if got := l4.TransmitTime(12_500_000); got != 2*time.Second {
		t.Fatalf("slow factor = %v, want 2s", got)
	}
}

func TestSendIsRateLimited(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	// 800 Mbps so 1 MB takes 10 ms.
	l := Limit(m.Endpoint(0), Options{RateMbps: 800})
	payload := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := l.Send(1, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 45*time.Millisecond {
		t.Fatalf("5 MB at 800 Mbps finished in %v, want >= ~50ms", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("rate limiting too slow: %v", elapsed)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Endpoint(1).Recv(0, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentSendsSerialize(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	l := Limit(m.Endpoint(0), Options{PerMessage: 10 * time.Millisecond})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Send(1, 2, []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("6 concurrent sends with 10ms occupancy took %v; egress not serialized", elapsed)
	}
}

// TestLimiterDeliversItsRate streams 40 400 KB frames at 400 Mbps, each
// acked by the receiver through a window of 8 (the shape of the benchmark's
// netem probe): a sender that keeps up must find the line where its last
// frame left it, so the stream takes its ideal line time, never less than
// that minus sleepGranularity and at most 5 % more. A lone message is not
// delivered more than sleepGranularity before its line time.
func TestLimiterDeliversItsRate(t *testing.T) {
	const (
		frames = 40
		frame  = 400 << 10
		rate   = 400
	)
	ideal := time.Duration(float64(frames*frame*8) / (rate * 1e6) * float64(time.Second))
	var runs []time.Duration
	for range 3 {
		m := memnet.NewMesh(2)
		l := Limit(m.Endpoint(0), Options{RateMbps: rate})
		acks := make(chan error, 1)
		go func() {
			for range frames {
				if _, err := m.Endpoint(1).Recv(0, 1); err != nil {
					acks <- err
					return
				}
				if err := transport.StreamAck(m.Endpoint(1), 0, 2); err != nil {
					acks <- err
					return
				}
			}
			acks <- nil
		}()
		s := transport.NewStreamSender(l, 1, 1, 2, 8)
		payload := make([]byte, frame)
		start := time.Now()
		for range frames {
			if err := s.Send(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := <-acks; err != nil {
			t.Fatal(err)
		}
		runs = append(runs, time.Since(start))
		m.Close()
	}
	slices.Sort(runs)
	if got := runs[1]; got < ideal-sleepGranularity || got > ideal*105/100 {
		t.Fatalf("%d x %d B at %d Mbps took %v (median of %v), want %v within [-%v, +5%%]",
			frames, frame, rate, got, runs, ideal, sleepGranularity)
	}

	m := memnet.NewMesh(2)
	defer m.Close()
	l := Limit(m.Endpoint(0), Options{RateMbps: rate})
	start := time.Now()
	sent := make(chan error, 1)
	go func() { sent <- l.Send(1, 3, make([]byte, 1_000_000)) }() // 20 ms of line time
	if _, err := m.Endpoint(1).Recv(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 19*time.Millisecond {
		t.Fatalf("a 20 ms message arrived after %v, more than %v early", got, sleepGranularity)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestLimiterKeepsAcceptanceOrder: a zero-length message (a token, an ack)
// queued behind a shaped one reaches the peer after it, never first.
func TestLimiterKeepsAcceptanceOrder(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	l := Limit(m.Endpoint(0), Options{RateMbps: 400})
	sent := make(chan error, 1)
	go func() { sent <- l.Send(1, 1, make([]byte, 1_000_000)) }() // 20 ms of line time
	time.Sleep(5 * time.Millisecond)
	if err := l.Send(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1_000_000, 0} {
		p, err := m.Endpoint(1).Recv(0, 1)
		if err != nil || len(p) != want {
			t.Fatalf("message %d: %d bytes, %v; want %d bytes", i, len(p), err, want)
		}
	}
}

func TestUnlimitedIsFast(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	l := Limit(m.Endpoint(0), Options{})
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := l.Send(1, 1, make([]byte, 1<<16)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("unlimited limiter added delay: %v", elapsed)
	}
}

func TestLimiterPassesThroughRecvAndMetadata(t *testing.T) {
	m := memnet.NewMesh(3)
	defer m.Close()
	l := Limit(m.Endpoint(1), Options{RateMbps: 1000})
	if l.Rank() != 1 || l.Size() != 3 {
		t.Fatalf("metadata wrong: %d/%d", l.Rank(), l.Size())
	}
	if err := m.Endpoint(0).Send(1, 4, []byte("in")); err != nil {
		t.Fatal(err)
	}
	got, err := l.Recv(0, 4)
	if err != nil || string(got) != "in" {
		t.Fatalf("Recv: %q %v", got, err)
	}
}

func TestFaulty(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	boom := errors.New("boom")
	f := Fail(m.Endpoint(0), 2, boom)
	if err := f.Send(1, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, 1, []byte("c")); !errors.Is(err, boom) {
		t.Fatalf("third send: %v, want boom", err)
	}
	if err := f.Send(1, 1, []byte("d")); !errors.Is(err, boom) {
		t.Fatalf("failure should be permanent, got %v", err)
	}
	if f.Rank() != 0 || f.Size() != 2 {
		t.Fatalf("metadata wrong")
	}
}

func TestFaultyBcastPropagates(t *testing.T) {
	// A failing send inside a collective must surface at the caller whose
	// link died, whether that is the root or a relay of the chain; the
	// members downstream of it never get the packet and are released by
	// closing their endpoints. Rooted at 0 the chain is 0, 2, 1: rank 2
	// relays and rank 1, the tail, only receives.
	boom := errors.New("link down")
	for _, tc := range []struct {
		name       string
		faulty     int      // the rank whose first send fails
		downstream []int    // the chain members after it
		want       [3]error // per rank: the injected failure, nil, or ErrClosed
	}{
		{"root", 0, []int{2, 1}, [3]error{boom, transport.ErrClosed, transport.ErrClosed}},
		{"relay", 2, []int{1}, [3]error{nil, transport.ErrClosed, boom}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := memnet.NewMesh(3)
			defer m.Close()
			group := []int{0, 1, 2}
			errs := make([]error, len(group))
			var wg sync.WaitGroup
			for _, rank := range group {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var conn transport.Conn = m.Endpoint(rank)
					if rank == tc.faulty {
						conn = Fail(conn, 0, boom)
					}
					var p []byte
					if rank == 0 {
						p = []byte("pkt")
					}
					_, errs[rank] = transport.WithCollectives(conn).Bcast(group, 0, 1, p)
					if rank == tc.faulty {
						for _, r := range tc.downstream {
							m.Endpoint(r).Close()
						}
					}
				}()
			}
			wg.Wait()
			for r, want := range tc.want {
				if !errors.Is(errs[r], want) {
					t.Fatalf("rank %d error = %v, want %v", r, errs[r], want)
				}
			}
		})
	}
}

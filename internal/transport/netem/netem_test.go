package netem

import (
	"errors"
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
	// closing their endpoints.
	boom := errors.New("link down")
	for _, tc := range []struct {
		name   string
		faulty int      // the rank whose first send fails
		want   [3]error // per rank: the injected failure, nil, or ErrClosed
	}{
		{"root", 0, [3]error{boom, transport.ErrClosed, transport.ErrClosed}},
		{"relay", 1, [3]error{nil, boom, transport.ErrClosed}},
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
						for r := rank + 1; r < len(group); r++ {
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

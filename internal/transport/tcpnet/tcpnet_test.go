package tcpnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"codedterasort/internal/transport"
)

func startLocal(t *testing.T, size int) []*Endpoint {
	t.Helper()
	eps, err := StartLocal(size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestMeshEstablishment(t *testing.T) {
	eps := startLocal(t, 5)
	for r, ep := range eps {
		if ep.Rank() != r || ep.Size() != 5 {
			t.Fatalf("endpoint %d: rank=%d size=%d", r, ep.Rank(), ep.Size())
		}
	}
}

func TestSendRecvAcrossSockets(t *testing.T) {
	eps := startLocal(t, 3)
	want := []byte("over tcp")
	if err := eps[0].Send(2, 42, want); err != nil {
		t.Fatal(err)
	}
	got, err := eps[2].Recv(0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestEmptyPayload(t *testing.T) {
	eps := startLocal(t, 2)
	if err := eps[0].Send(1, 7, nil); err != nil {
		t.Fatal(err)
	}
	got, err := eps[1].Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestLargePayload(t *testing.T) {
	eps := startLocal(t, 2)
	want := make([]byte, 4<<20)
	for i := range want {
		want[i] = byte(i * 31)
	}
	go func() {
		if err := eps[0].Send(1, 1, want); err != nil {
			t.Error(err)
		}
	}()
	got, err := eps[1].Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("4MiB payload corrupted")
	}
}

func TestSelfSend(t *testing.T) {
	eps := startLocal(t, 2)
	if err := eps[1].Send(1, 5, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	got, err := eps[1].Recv(1, 5)
	if err != nil || string(got) != "loop" {
		t.Fatalf("self loop: %q %v", got, err)
	}
}

func TestFIFOAndTagMatchingOverTCP(t *testing.T) {
	eps := startLocal(t, 2)
	for i := 0; i < 20; i++ {
		tag := transport.Tag(i % 2)
		if err := eps[0].Send(1, tag, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Even-tagged messages arrive in order regardless of odd interleaving.
	for i := 0; i < 20; i += 2 {
		got, err := eps[1].Recv(0, 0)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("tag0 seq: got %v, %v (want %d)", got, err, i)
		}
	}
	for i := 1; i < 20; i += 2 {
		got, err := eps[1].Recv(0, 1)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("tag1 seq: got %v, %v (want %d)", got, err, i)
		}
	}
}

func TestConcurrentAllToAll(t *testing.T) {
	const k = 6
	eps := startLocal(t, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for to := 0; to < k; to++ {
				if to == rank {
					continue
				}
				payload := []byte(fmt.Sprintf("%d->%d", rank, to))
				if err := eps[rank].Send(to, 9, payload); err != nil {
					t.Error(err)
					return
				}
			}
			for from := 0; from < k; from++ {
				if from == rank {
					continue
				}
				got, err := eps[rank].Recv(from, 9)
				if err != nil || string(got) != fmt.Sprintf("%d->%d", from, rank) {
					t.Errorf("rank %d from %d: %q %v", rank, from, got, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestCollectivesOverTCP(t *testing.T) {
	// Every root of every group size relays payloads of 0, 1 and 1 MiB
	// bytes intact down the chain over real sockets.
	const k = 8
	eps := startLocal(t, k)
	group := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for size := 1; size <= k; size++ {
		for _, n := range []int{0, 1, 1 << 20} {
			t.Run(fmt.Sprintf("n=%d/len=%d", size, n), func(t *testing.T) {
				for root := 0; root < size; root++ {
					payload := make([]byte, n)
					for i := range payload {
						payload[i] = byte(root*31 + i*7)
					}
					tag := transport.MakeTag(8, uint16(size), uint16(root))
					var wg sync.WaitGroup
					for _, rank := range group[:size] {
						wg.Add(1)
						go func() {
							defer wg.Done()
							var p []byte
							if rank == root {
								p = payload
							}
							got, err := transport.WithCollectives(eps[rank]).Bcast(group[:size], root, tag, p)
							if err != nil {
								t.Errorf("rank %d: %v", rank, err)
							} else if !bytes.Equal(got, payload) {
								t.Errorf("rank %d got %d bytes, not root %d's %d", rank, len(got), root, n)
							}
						}()
					}
					wg.Wait()
				}
			})
		}
	}
}

func TestBarrierOverTCP(t *testing.T) {
	const k = 4
	eps := startLocal(t, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep := transport.WithCollectives(eps[rank])
			for round := 0; round < 3; round++ {
				if err := ep.Barrier(transport.MakeTag(9, uint16(round), 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestCloseUnblocksRecv(t *testing.T) {
	eps := startLocal(t, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := eps[1].Recv(0, 99)
		errc <- err
	}()
	eps[1].Close()
	if err := <-errc; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestPeerDisconnectClosesBox(t *testing.T) {
	eps := startLocal(t, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := eps[1].Recv(0, 50)
		errc <- err
	}()
	eps[0].Close() // peer goes away; rank 1's reader hits EOF
	if err := <-errc; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3, []string{"a", "b"}); err == nil {
		t.Fatalf("out-of-range rank accepted")
	}
	if _, err := StartLocal(0); err == nil {
		t.Fatalf("size 0 accepted")
	}
}

func TestRankValidation(t *testing.T) {
	eps := startLocal(t, 2)
	if err := eps[0].Send(7, 1, nil); err == nil {
		t.Fatalf("out-of-range send accepted")
	}
	if _, err := eps[0].Recv(-2, 1); err == nil {
		t.Fatalf("out-of-range recv accepted")
	}
}

func BenchmarkTCPSendRecv64K(b *testing.B) {
	eps, err := StartLocal(2)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		go func() {
			if err := eps[0].Send(1, 1, payload); err != nil {
				b.Error(err)
			}
		}()
		if _, err := eps[1].Recv(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

package memnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"codedterasort/internal/transport"
)

func TestSendRecvBasic(t *testing.T) {
	m := NewMesh(2)
	defer m.Close()
	want := []byte("hello")
	if err := m.Endpoint(0).Send(1, 7, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Endpoint(1).Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	m := NewMesh(2)
	defer m.Close()
	buf := []byte("abc")
	if err := m.Endpoint(0).Send(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // sender reuses its buffer
	got, err := m.Endpoint(1).Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("payload aliased: %q", got)
	}
}

func TestFIFOWithinTag(t *testing.T) {
	m := NewMesh(2)
	defer m.Close()
	for i := 0; i < 10; i++ {
		if err := m.Endpoint(0).Send(1, 3, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := m.Endpoint(1).Recv(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("out of order: got %d at position %d", got[0], i)
		}
	}
}

func TestTagMatching(t *testing.T) {
	m := NewMesh(2)
	defer m.Close()
	// Send tag 2 first, then tag 1; receive tag 1 first.
	if err := m.Endpoint(0).Send(1, 2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := m.Endpoint(0).Send(1, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, err := m.Endpoint(1).Recv(0, 1)
	if err != nil || string(got) != "one" {
		t.Fatalf("tag 1: %q, %v", got, err)
	}
	got, err = m.Endpoint(1).Recv(0, 2)
	if err != nil || string(got) != "two" {
		t.Fatalf("tag 2: %q, %v", got, err)
	}
}

func TestSourceMatching(t *testing.T) {
	m := NewMesh(3)
	defer m.Close()
	if err := m.Endpoint(1).Send(0, 5, []byte("from1")); err != nil {
		t.Fatal(err)
	}
	if err := m.Endpoint(2).Send(0, 5, []byte("from2")); err != nil {
		t.Fatal(err)
	}
	got, err := m.Endpoint(0).Recv(2, 5)
	if err != nil || string(got) != "from2" {
		t.Fatalf("from 2: %q, %v", got, err)
	}
	got, err = m.Endpoint(0).Recv(1, 5)
	if err != nil || string(got) != "from1" {
		t.Fatalf("from 1: %q, %v", got, err)
	}
}

func TestSelfSend(t *testing.T) {
	m := NewMesh(1)
	defer m.Close()
	if err := m.Endpoint(0).Send(0, 9, []byte("me")); err != nil {
		t.Fatal(err)
	}
	got, err := m.Endpoint(0).Recv(0, 9)
	if err != nil || string(got) != "me" {
		t.Fatalf("self send: %q, %v", got, err)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	m := NewMesh(2)
	defer m.Close()
	done := make(chan []byte)
	go func() {
		p, err := m.Endpoint(1).Recv(0, 4)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	if err := m.Endpoint(0).Send(1, 4, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if got := <-done; string(got) != "late" {
		t.Fatalf("got %q", got)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	m := NewMesh(2)
	errc := make(chan error)
	go func() {
		_, err := m.Endpoint(1).Recv(0, 4)
		errc <- err
	}()
	m.Endpoint(1).Close()
	if err := <-errc; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestSendToClosedEndpoint(t *testing.T) {
	m := NewMesh(2)
	m.Endpoint(1).Close()
	if err := m.Endpoint(0).Send(1, 1, []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestRankValidation(t *testing.T) {
	m := NewMesh(2)
	defer m.Close()
	if err := m.Endpoint(0).Send(5, 1, nil); err == nil {
		t.Fatalf("out-of-range send accepted")
	}
	if _, err := m.Endpoint(0).Recv(-1, 1); err == nil {
		t.Fatalf("out-of-range recv accepted")
	}
}

func TestConcurrentAllToAll(t *testing.T) {
	const k = 8
	m := NewMesh(k)
	defer m.Close()
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep := m.Endpoint(rank)
			for to := 0; to < k; to++ {
				if to == rank {
					continue
				}
				if err := ep.Send(to, 1, []byte{byte(rank)}); err != nil {
					t.Error(err)
					return
				}
			}
			for from := 0; from < k; from++ {
				if from == rank {
					continue
				}
				p, err := ep.Recv(from, 1)
				if err != nil || p[0] != byte(from) {
					t.Errorf("rank %d from %d: %v %v", rank, from, p, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// runCollective runs fn concurrently on every endpoint and fails the test
// on any error.
func runCollective(t *testing.T, m *Mesh, fn func(ep transport.Endpoint) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, m.Size())
	for r := 0; r < m.Size(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(transport.WithCollectives(m.Endpoint(rank)))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// bcastPayload is a root-specific payload of n bytes.
func bcastPayload(root, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(root*31 + i*7)
	}
	return p
}

func TestBcastEveryRootSizePayload(t *testing.T) {
	for _, groupSize := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for _, n := range []int{0, 1, 1 << 20} {
			t.Run(fmt.Sprintf("n=%d/len=%d", groupSize, n), func(t *testing.T) {
				m := NewMesh(8)
				defer m.Close()
				group := make([]int, groupSize)
				for i := range group {
					group[i] = i
				}
				for _, root := range group {
					payload := bcastPayload(root, n)
					runCollective(t, m, func(ep transport.Endpoint) error {
						if !contains(group, ep.Rank()) {
							return nil
						}
						var p []byte
						if ep.Rank() == root {
							p = payload
						}
						got, err := ep.Bcast(group, root, transport.MakeTag(1, uint16(root), 0), p)
						if err != nil {
							return err
						}
						if !bytes.Equal(got, payload) {
							return fmt.Errorf("rank %d got %d bytes, not the root's %d", ep.Rank(), len(got), n)
						}
						return nil
					})
				}
			})
		}
	}
}

func TestBcastNonContiguousGroup(t *testing.T) {
	// Multicast groups are arbitrary subsets (e.g. {1,4,6}); the chain must
	// handle sparse membership and wrap around from any root.
	m := NewMesh(8)
	defer m.Close()
	group := []int{1, 4, 6}
	for _, root := range group {
		payload := []byte{byte(root), 0xEE}
		runCollective(t, m, func(ep transport.Endpoint) error {
			if !contains(group, ep.Rank()) {
				return nil
			}
			var p []byte
			if ep.Rank() == root {
				p = payload
			}
			got, err := ep.Bcast(group, root, transport.MakeTag(2, uint16(root), 0), p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("rank %d got %v", ep.Rank(), got)
			}
			return nil
		})
	}
}

func TestBcastErrors(t *testing.T) {
	m := NewMesh(4)
	defer m.Close()
	ep := transport.WithCollectives(m.Endpoint(0))
	if _, err := ep.Bcast([]int{1, 2}, 1, 1, nil); err == nil {
		t.Fatalf("non-member bcast accepted")
	}
	if _, err := ep.Bcast([]int{0, 1}, 2, 1, nil); err == nil {
		t.Fatalf("root outside group accepted")
	}
	if _, err := ep.Bcast(nil, 0, 1, nil); err == nil {
		t.Fatalf("empty group accepted")
	}
	if _, err := ep.Bcast([]int{0, 0, 1}, 0, 1, nil); err == nil {
		t.Fatalf("duplicate member accepted")
	}
}

func TestBarrier(t *testing.T) {
	const k = 6
	m := NewMesh(k)
	defer m.Close()
	var phase [k]int32
	runCollective(t, m, func(ep transport.Endpoint) error {
		phase[ep.Rank()] = 1
		if err := ep.Barrier(transport.MakeTag(3, 0, 0)); err != nil {
			return err
		}
		// After the barrier every node must have reached phase 1.
		for r := 0; r < k; r++ {
			if phase[r] != 1 {
				return fmt.Errorf("rank %d saw rank %d at phase %d", ep.Rank(), r, phase[r])
			}
		}
		return nil
	})
}

func TestMeterCounts(t *testing.T) {
	m := NewMesh(2)
	defer m.Close()
	meterA := transport.NewMeter(m.Endpoint(0))
	meterB := transport.NewMeter(m.Endpoint(1))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			if _, err := meterB.Recv(0, 1); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := meterA.Send(1, 1, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	a, b := meterA.Counters(), meterB.Counters()
	if a.SentMsgs != 3 || a.SentBytes != 30 {
		t.Fatalf("sender counters = %+v", a)
	}
	if b.RecvMsgs != 3 || b.RecvBytes != 30 {
		t.Fatalf("receiver counters = %+v", b)
	}
	meterA.Reset()
	if c := meterA.Counters(); c != (transport.Counters{}) {
		t.Fatalf("reset failed: %+v", c)
	}
	sum := a.Add(b)
	if sum.SentMsgs != 3 || sum.RecvMsgs != 3 {
		t.Fatalf("Add wrong: %+v", sum)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func BenchmarkSendRecv(b *testing.B) {
	m := NewMesh(2)
	defer m.Close()
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if err := m.Endpoint(0).Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Endpoint(1).Recv(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fakeConn is a minimal in-package mesh for testing the collective
// algorithms without importing the memnet package (which would create an
// import cycle in tests).
type fakeMesh struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][][]byte // key: "src>dst:tag"
	size   int
	log    []string // send log for schedule-shape assertions
}

func newFakeMesh(size int) *fakeMesh {
	m := &fakeMesh{queues: map[string][][]byte{}, size: size}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *fakeMesh) conn(rank int) *fakeConn { return &fakeConn{mesh: m, rank: rank} }

type fakeConn struct {
	mesh *fakeMesh
	rank int
}

func key(src, dst int, tag Tag) string { return fmt.Sprintf("%d>%d:%d", src, dst, tag) }

func (c *fakeConn) Rank() int { return c.rank }
func (c *fakeConn) Size() int { return c.mesh.size }

func (c *fakeConn) Send(to int, tag Tag, payload []byte) error {
	m := c.mesh
	m.mu.Lock()
	defer m.mu.Unlock()
	k := key(c.rank, to, tag)
	m.queues[k] = append(m.queues[k], append([]byte(nil), payload...))
	m.log = append(m.log, fmt.Sprintf("%d->%d", c.rank, to))
	m.cond.Broadcast()
	return nil
}

func (c *fakeConn) Recv(from int, tag Tag) ([]byte, error) {
	m := c.mesh
	m.mu.Lock()
	defer m.mu.Unlock()
	k := key(from, c.rank, tag)
	for len(m.queues[k]) == 0 {
		m.cond.Wait()
	}
	p := m.queues[k][0]
	m.queues[k] = m.queues[k][1:]
	return p, nil
}

func (c *fakeConn) Close() error { return nil }

func (m *fakeMesh) sendLog() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.log...)
}

func TestMakeTagDisjointness(t *testing.T) {
	seen := map[Tag]bool{}
	for stage := uint8(0); stage < 4; stage++ {
		for a := uint16(0); a < 8; a++ {
			for b := uint16(0); b < 8; b++ {
				tag := MakeTag(stage, a, b)
				if seen[tag] {
					t.Fatalf("collision at stage=%d a=%d b=%d", stage, a, b)
				}
				seen[tag] = true
			}
		}
	}
}

func TestGroupIndexValidation(t *testing.T) {
	if _, _, err := groupIndex(nil, 0); err == nil {
		t.Fatalf("empty group accepted")
	}
	if _, _, err := groupIndex([]int{1, 1, 2}, 1); err == nil {
		t.Fatalf("duplicate accepted")
	}
	if _, _, err := groupIndex([]int{1, 2}, 3); err == nil {
		t.Fatalf("non-member accepted")
	}
	sorted, idx, err := groupIndex([]int{5, 1, 3}, 3)
	if err != nil || idx != 1 || sorted[0] != 1 || sorted[2] != 5 {
		t.Fatalf("groupIndex = %v, %d, %v", sorted, idx, err)
	}
}

// runGroup executes fn concurrently for each rank of group and waits.
func runGroup(t *testing.T, mesh *fakeMesh, group []int, fn func(c Conn) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(group))
	for i, rank := range group {
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			errs[i] = fn(mesh.conn(rank))
		}(i, rank)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", group[i], err)
		}
	}
}

func TestChainBcastSendPattern(t *testing.T) {
	// The chain of a sparse group rooted mid-group: the root, then the
	// members below it, then wrapping to the highest. The root sends exactly
	// once, member v of the chain sends only to member v+1, the last member
	// — the one just above the root — sends nothing, and the Endpoint's
	// Bcast is this chain.
	mesh := newFakeMesh(8)
	group := []int{7, 0, 4, 2, 5}
	runGroup(t, mesh, group, func(c Conn) error {
		var p []byte
		if c.Rank() == 4 {
			p = []byte("x")
		}
		_, err := WithCollectives(c).Bcast(group, 4, 7, p)
		return err
	})
	want := []string{"4->2", "2->0", "0->7", "7->5"}
	if got := mesh.sendLog(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("send log %v, want %v", got, want)
	}
}

func TestChainBcastAllRootsAllSizes(t *testing.T) {
	for size := 1; size <= 9; size++ {
		group := make([]int, size)
		for i := range group {
			group[i] = i
		}
		for root := 0; root < size; root++ {
			mesh := newFakeMesh(size)
			payload := []byte{byte(root), byte(size)}
			got := make([][]byte, size)
			runGroup(t, mesh, group, func(c Conn) error {
				var p []byte
				if c.Rank() == root {
					p = payload
				}
				var err error
				got[c.Rank()], err = ChainBcast(c, group, root, 3, p)
				return err
			})
			for rank := range got {
				if string(got[rank]) != string(payload) {
					t.Fatalf("size=%d root=%d rank=%d: got %v", size, root, rank, got[rank])
				}
			}
			// n-1 sends, no member sending twice.
			log := mesh.sendLog()
			senders := map[string]bool{}
			for _, s := range log {
				from, _, _ := strings.Cut(s, "->")
				if senders[from] {
					t.Fatalf("size=%d root=%d: rank %s sent twice: %v", size, root, from, log)
				}
				senders[from] = true
			}
			if len(log) != size-1 {
				t.Fatalf("size=%d root=%d: %d sends", size, root, len(log))
			}
		}
	}
}

func TestSerialOrderRunsInRankOrder(t *testing.T) {
	const k = 5
	mesh := newFakeMesh(k)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			err := SerialOrder(mesh.conn(rank), 11, func() error {
				mu.Lock()
				order = append(order, rank)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	for i, rank := range order {
		if rank != i {
			t.Fatalf("execution order %v", order)
		}
	}
}

func TestSerialOrderStopsOnError(t *testing.T) {
	// An error at rank 0 must propagate to the caller and never release
	// the token, so rank 1 stays blocked (released via a second token sent
	// manually here).
	mesh := newFakeMesh(2)
	boom := fmt.Errorf("boom")
	err := SerialOrder(mesh.conn(0), 12, func() error { return boom })
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if n := len(mesh.sendLog()); n != 0 {
		t.Fatalf("token passed after error: %v", mesh.sendLog())
	}
}

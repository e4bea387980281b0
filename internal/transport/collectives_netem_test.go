// Collectives under netem fault injection: a collective on a shaped or
// failing link must surface the error at the faulty rank and, once the job
// tears the mesh down, unblock every other participant with ErrClosed —
// clean errors everywhere, hangs nowhere. The tests run in an external
// test package so they can compose the real memnet mesh with the netem
// wrappers (netem imports transport, so the in-package fake cannot).
package transport_test

import (
	"errors"
	"testing"
	"time"

	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
)

var errLink = errors.New("injected link failure")

// runRanks executes fn on every rank concurrently and waits for all of
// them, failing the test if any rank is still blocked after the timeout —
// the "never hang" half of the collectives' error contract.
func runRanks(t *testing.T, k int, timeout time.Duration, fn func(rank int) error) []error {
	t.Helper()
	errs := make([]error, k)
	done := make(chan int, k)
	for r := 0; r < k; r++ {
		go func(rank int) {
			errs[rank] = fn(rank)
			done <- rank
		}(r)
	}
	deadline := time.After(timeout)
	for i := 0; i < k; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("collective hung: %d/%d ranks still blocked", k-i, k)
		}
	}
	return errs
}

// faultyBcast runs one Bcast rooted at root over a K-node mesh where the
// egress of rank faulty fails on its first send, closing the mesh once that
// rank errors (the teardown a failed job performs), and returns the
// per-rank results.
func faultyBcast(t *testing.T, k, root, faulty int) []error {
	t.Helper()
	mesh := memnet.NewMesh(k)
	defer mesh.Close()
	group := make([]int, k)
	for i := range group {
		group[i] = i
	}
	payload := make([]byte, 1024)
	return runRanks(t, k, 5*time.Second, func(rank int) error {
		var conn transport.Conn = mesh.Endpoint(rank)
		if rank == faulty {
			conn = netem.Fail(conn, 0, errLink)
		}
		var p []byte
		if rank == root {
			p = payload
		}
		_, err := transport.WithCollectives(conn).Bcast(group, root, transport.MakeTag(0x60, 0, 0), p)
		if rank == faulty && err != nil {
			// The failed rank tears the job down; members downstream of
			// the dead link unblock with ErrClosed instead of hanging.
			mesh.Close()
		}
		return err
	})
}

// TestBcastFaultyLinkErrorsCleanly: every link of the chain can die — the
// root's, and each relay's forward. The member whose link died surfaces the
// injected error, and no other member errors otherwise or hangs.
func TestBcastFaultyLinkErrorsCleanly(t *testing.T) {
	const k, root = 5, 2
	// Chain order: the root, then the members below it, wrapping around.
	for v := 0; v < k-1; v++ {
		faulty := (root - v + k) % k
		errs := faultyBcast(t, k, root, faulty)
		if !errors.Is(errs[faulty], errLink) {
			t.Fatalf("chain member %d (rank %d): error = %v, want injected failure", v, faulty, errs[faulty])
		}
		for r := 0; r < k; r++ {
			if r != faulty && errs[r] != nil && !errors.Is(errs[r], transport.ErrClosed) {
				t.Fatalf("link %d down: rank %d error = %v, want nil or ErrClosed", v, r, errs[r])
			}
		}
	}
}

// TestBcastShapedLinkDelivers: a rate-limited link slows the multicast but
// must not corrupt or reorder it — every member still receives the root's
// payload intact.
func TestBcastShapedLinkDelivers(t *testing.T) {
	const k = 4
	mesh := memnet.NewMesh(k)
	defer mesh.Close()
	group := []int{0, 1, 2, 3}
	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got := make([][]byte, k)
	errs := runRanks(t, k, 10*time.Second, func(rank int) error {
		var conn transport.Conn = mesh.Endpoint(rank)
		if rank == 0 {
			// ~50 Mbps with a per-message cost: slow enough to exercise the
			// shaper's queueing, fast enough for a test.
			conn = netem.Limit(conn, netem.Options{RateMbps: 50, PerMessage: time.Millisecond})
		}
		ep := transport.WithCollectives(conn)
		var p []byte
		if rank == 0 {
			p = payload
		}
		out, err := ep.Bcast(group, 0, transport.MakeTag(0x61, 0, 0), p)
		got[rank] = out
		return err
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if len(got[r]) != len(payload) {
			t.Fatalf("rank %d received %d bytes, want %d", r, len(got[r]), len(payload))
		}
	}
	for i := range payload {
		if got[2][i] != payload[i] {
			t.Fatalf("shaped multicast corrupted byte %d", i)
		}
	}
}

// TestBarrierFaultyArrivalErrorsCleanly: a rank whose barrier arrival send
// fails errors immediately; everyone blocked on the incomplete barrier
// unblocks with ErrClosed at teardown.
func TestBarrierFaultyArrivalErrorsCleanly(t *testing.T) {
	const k = 4
	mesh := memnet.NewMesh(k)
	defer mesh.Close()
	errs := runRanks(t, k, 5*time.Second, func(rank int) error {
		var conn transport.Conn = mesh.Endpoint(rank)
		if rank == 3 {
			conn = netem.Fail(conn, 0, errLink)
		}
		ep := transport.WithCollectives(conn)
		err := ep.Barrier(transport.MakeTag(0x63, 0, 0))
		if rank == 3 && err != nil {
			mesh.Close()
		}
		return err
	})
	if !errors.Is(errs[3], errLink) {
		t.Fatalf("faulty rank error = %v, want injected failure", errs[3])
	}
	for r := 0; r < 3; r++ {
		if errs[r] != nil && !errors.Is(errs[r], transport.ErrClosed) {
			t.Fatalf("rank %d error = %v, want nil or ErrClosed", r, errs[r])
		}
	}
}

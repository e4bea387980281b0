package coded

import (
	"sync"
	"testing"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// sentMsg is one completed Send: the sending rank, its tag and payload size.
type sentMsg struct {
	node  int
	tag   transport.Tag
	bytes int
}

// sendLog collects the completed sends of every rank of a cluster in
// completion order.
type sendLog struct {
	mu    sync.Mutex
	sends []sentMsg
}

// recordingConn is a Conn that appends each completed Send to a shared log.
type recordingConn struct {
	transport.Conn
	log *sendLog
}

func (c recordingConn) Send(to int, tag transport.Tag, payload []byte) error {
	if err := c.Conn.Send(to, tag, payload); err != nil {
		return err
	}
	c.log.mu.Lock()
	c.log.sends = append(c.log.sends, sentMsg{node: c.Rank(), tag: tag, bytes: len(payload)})
	c.log.mu.Unlock()
	return nil
}

// tracedShuffleSends runs every rank of the job over an in-memory mesh
// with sequential broadcast and returns the shuffle sends (stage byte
// tagMulticast in the tag) in completion order.
func tracedShuffleSends(t *testing.T, spec job.Spec) []sentMsg {
	t.Helper()
	mesh := memnet.NewMesh(spec.K)
	defer mesh.Close()
	log := &sendLog{}
	var wg sync.WaitGroup
	for rank := 0; rank < spec.K; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep := transport.WithCollectives(recordingConn{mesh.Endpoint(rank), log}, transport.BcastSequential)
			if _, err := Run(ep, Config{Spec: spec}); err != nil {
				t.Error(err)
			}
		}(rank)
	}
	wg.Wait()
	var shuffle []sentMsg
	for _, s := range log.sends {
		if uint8(s.tag>>56) == tagMulticast {
			shuffle = append(shuffle, s)
		}
	}
	return shuffle
}

// assertSerialSenders checks the Fig 9 schedule: senders take the wire
// strictly in rank order, each finishing all its sends before the next
// sender's first (the token-chained schedule).
func assertSerialSenders(t *testing.T, sends []sentMsg, k int) {
	t.Helper()
	var order []int
	firstOf, lastOf := map[int]int{}, map[int]int{}
	for i, s := range sends {
		if _, ok := firstOf[s.node]; !ok {
			firstOf[s.node] = i
			order = append(order, s.node)
		}
		lastOf[s.node] = i
	}
	for i, rank := range order {
		if rank != i {
			t.Fatalf("senders out of rank order: %v", order)
		}
	}
	for rank := 0; rank < k-1; rank++ {
		if lastOf[rank] > firstOf[rank+1] {
			t.Fatalf("rank %d still sending after rank %d started", rank, rank+1)
		}
	}
}

// TestFig9aSerialScheduleObserved traces a real TeraSort shuffle and
// asserts the Fig 9(a) property: shuffle senders take the wire strictly in
// rank order.
func TestFig9aSerialScheduleObserved(t *testing.T) {
	const k = 4
	var sends []sentMsg
	// Shuffle payload sends carry a non-empty payload.
	for _, s := range tracedShuffleSends(t, job.Spec{Algorithm: job.AlgTeraSort, K: k, Rows: 2000, Seed: 3}) {
		if s.bytes > 0 {
			sends = append(sends, s)
		}
	}
	if len(sends) != k*(k-1) {
		t.Fatalf("%d shuffle sends, want %d", len(sends), k*(k-1))
	}
	assertSerialSenders(t, sends, k)
	// Sanity: traced totals match the metered expectation of (K-1)/K data.
	var sent int64
	for _, s := range sends {
		sent += int64(s.bytes)
	}
	want := int64(2000 * kv.RecordSize * (k - 1) / k)
	if sent < want*95/100 || sent > want*105/100 {
		t.Fatalf("traced shuffle bytes %d, want about %d", sent, want)
	}
}

// TestFig9bSerialMulticastObserved traces a CodedTeraSort multicast
// shuffle and asserts the Fig 9(b) property: multicast roots take the
// wire strictly in rank order, each finishing its groups before the next
// root starts.
func TestFig9bSerialMulticastObserved(t *testing.T) {
	const k, r = 4, 2
	sends := tracedShuffleSends(t, job.Spec{Algorithm: job.AlgCoded, K: k, R: r, Rows: 2000, Seed: 4})
	// Each node roots C(K-1, r) = 3 groups and unicasts each packet to r
	// receivers: 4 * 3 * 2 = 24 wire sends.
	if len(sends) != 24 {
		t.Fatalf("%d multicast sends, want 24", len(sends))
	}
	assertSerialSenders(t, sends, k)
}

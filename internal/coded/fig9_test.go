package coded

import (
	"fmt"
	"sync"
	"testing"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/placement"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// wireEvent is one completed Send (node to peer) or Recv (at node, from
// peer): its tag and payload size.
type wireEvent struct {
	recv       bool
	node, peer int
	tag        transport.Tag
	bytes      int
}

// wireLog collects the completed sends and receives of every rank of a
// cluster in completion order.
type wireLog struct {
	mu     sync.Mutex
	events []wireEvent
}

func (l *wireLog) add(e wireEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// recordingConn is a Conn that appends each completed Send and Recv to a
// shared log.
type recordingConn struct {
	transport.Conn
	log *wireLog
}

func (c recordingConn) Send(to int, tag transport.Tag, payload []byte) error {
	if err := c.Conn.Send(to, tag, payload); err != nil {
		return err
	}
	c.log.add(wireEvent{node: c.Rank(), peer: to, tag: tag, bytes: len(payload)})
	return nil
}

func (c recordingConn) Recv(from int, tag transport.Tag) ([]byte, error) {
	p, err := c.Conn.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	c.log.add(wireEvent{recv: true, node: c.Rank(), peer: from, tag: tag, bytes: len(p)})
	return p, nil
}

// tracedShuffle runs every rank of the job over an in-memory mesh and
// returns the shuffle traffic (stage byte tagMulticast in the tag), sends
// and receives, in completion order.
func tracedShuffle(t *testing.T, spec job.Spec) []wireEvent {
	t.Helper()
	mesh := memnet.NewMesh(spec.K)
	defer mesh.Close()
	log := &wireLog{}
	var wg sync.WaitGroup
	for rank := 0; rank < spec.K; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep := transport.WithCollectives(recordingConn{mesh.Endpoint(rank), log})
			if _, err := Run(ep, withInput(Config{Spec: spec})); err != nil {
				t.Error(err)
			}
		}(rank)
	}
	wg.Wait()
	var shuffle []wireEvent
	for _, e := range log.events {
		if uint8(e.tag>>56) == tagMulticast {
			shuffle = append(shuffle, e)
		}
	}
	return shuffle
}

// tagRoot is the multicast root groupTag encodes in a shuffle tag.
func tagRoot(tag transport.Tag) int { return int(tag >> 48 & 0xFF) }

// assertSerialSenders checks the Fig 9 schedule: senders take the wire
// strictly in rank order, each finishing all its sends before the next
// sender's first (the token-chained schedule).
func assertSerialSenders(t *testing.T, sends []wireEvent, k int) {
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
	var sends []wireEvent
	// Shuffle payload sends carry a non-empty payload.
	for _, e := range tracedShuffle(t, job.Spec{Algorithm: job.AlgTeraSort, K: k, Rows: 2000, Seed: 3}) {
		if !e.recv && e.bytes > 0 {
			sends = append(sends, e)
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

// TestFig9bSerialMulticastObserved traces CodedTeraSort multicast shuffles
// and asserts the Fig 9(b) property, which is about roots: the sends
// multicast roots make take the wire strictly in rank order, each root
// finishing its groups before the next root starts. Every (group, root)
// packet crosses exactly one link per receiving member: one send by the
// root, and the rest by members that had already received it. Relays are
// ranks whose turn has passed or has yet to come, never the next root:
// rank u+1 does not forward any of root u's packets, so it takes the wire
// with its egress free. Each shape runs monolithic and chunked.
func TestFig9bSerialMulticastObserved(t *testing.T) {
	for _, shape := range []struct {
		kind placement.Kind
		k, r int
	}{
		{placement.KindClique, 4, 2},
		{placement.KindClique, 5, 3},
		{placement.KindClique, 6, 2},
		{placement.KindResolvable, 6, 3},
	} {
		for _, chunkRows := range []int{0, 64} {
			spec := job.Spec{Algorithm: job.AlgCoded, K: shape.k, R: shape.r, Placement: string(shape.kind),
				ChunkRows: chunkRows, Rows: 2000, Seed: 4}
			t.Run(fmt.Sprintf("%s/K=%d/r=%d/chunk=%d", shape.kind, shape.k, shape.r, chunkRows), func(t *testing.T) {
				strategy, err := placement.New(shape.kind, shape.k, shape.r)
				if err != nil {
					t.Fatal(err)
				}
				assertSerialMulticast(t, strategy, tracedShuffle(t, spec), chunkRows == 0)
			})
		}
	}
}

// assertSerialMulticast checks one traced coded shuffle against its
// strategy's groups: see TestFig9bSerialMulticastObserved. Monolithic
// shuffles send one packet per (group, root); chunked ones at least one.
func assertSerialMulticast(t *testing.T, strategy placement.Strategy, events []wireEvent, mono bool) {
	t.Helper()
	k := strategy.K()
	links := map[transport.Tag]int{} // tag -> links each of its packets crosses
	strategy.EachGroup(func(g placement.Group) bool {
		for _, root := range g.Members {
			links[groupTag(tagMulticast, g.ID, root)] = len(g.Members) - 1
		}
		return true
	})
	var rootSends []wireEvent
	sendsOf := map[transport.Tag][]wireEvent{}
	received := map[transport.Tag]map[int]bool{} // tag -> the members holding the packet
	for _, e := range events {
		root := tagRoot(e.tag)
		if received[e.tag] == nil {
			received[e.tag] = map[int]bool{root: true}
		}
		if e.recv {
			received[e.tag][e.node] = true
			continue
		}
		if !received[e.tag][e.node] {
			t.Fatalf("rank %d sent root %d's packet before receiving it", e.node, root)
		}
		if e.node == root+1 {
			t.Fatalf("rank %d relayed root %d's packet: the next root must take the wire free", e.node, root)
		}
		sendsOf[e.tag] = append(sendsOf[e.tag], e)
		if e.node == root {
			rootSends = append(rootSends, e)
		}
	}
	if len(sendsOf) != len(links) {
		t.Fatalf("%d (group, root) packets on the wire, want %d", len(sendsOf), len(links))
	}
	for tag, sends := range sendsOf {
		want, ok := links[tag]
		if !ok {
			t.Fatalf("traffic on tag %#x, which names no (group, root) of the strategy", tag)
		}
		var byRoot int
		for _, s := range sends {
			if s.node == tagRoot(tag) {
				byRoot++
			}
		}
		if byRoot == 0 || (mono && byRoot != 1) {
			t.Fatalf("root %d sent its packet %d times", tagRoot(tag), byRoot)
		}
		if len(sends) != byRoot*want {
			t.Fatalf("root %d's %d packet(s) crossed %d links, want %d each", tagRoot(tag), byRoot, len(sends), want)
		}
	}
	assertSerialSenders(t, rootSends, k)
}

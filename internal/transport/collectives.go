package transport

import (
	"fmt"
	"sort"
)

// groupIndex returns the position of rank within the ascending-sorted group
// and the sorted copy, or an error if rank is absent or the group invalid.
func groupIndex(group []int, rank int) ([]int, int, error) {
	if len(group) == 0 {
		return nil, -1, fmt.Errorf("transport: empty group")
	}
	sorted := append([]int(nil), group...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, -1, fmt.Errorf("transport: duplicate rank %d in group", sorted[i])
		}
	}
	for i, r := range sorted {
		if r == rank {
			return sorted, i, nil
		}
	}
	return nil, -1, fmt.Errorf("transport: rank %d not in group %v", rank, group)
}

// ChainBcast is the application-layer multicast: the payload relays down a
// chain of the group — the root, then the other members in descending rank,
// wrapping around from the lowest to the highest. The root sends it once, to
// its successor; every other member receives it from its predecessor and
// forwards the same buffer to its successor before returning it, and the
// last member only receives. The payload crosses len(group)-1 links, as many
// as r unicasts from the root, but each member's egress carries it at most
// once, so a relay forwards on its own link while the root moves on to its
// next packet. Running down from the root makes the member just above it the
// tail: under the serial schedule (roots in ascending rank) the next root
// only receives its predecessor's packets, and the relays are ranks whose
// turn has passed or is two or more roots away. A group of two is one unicast. All group members must
// call it with identical group/root/tag.
func ChainBcast(c Conn, group []int, root int, tag Tag, payload []byte) ([]byte, error) {
	sorted, self, err := groupIndex(group, c.Rank())
	if err != nil {
		return nil, err
	}
	_, rootIdx, err := groupIndex(group, root)
	if err != nil {
		return nil, err
	}
	n := len(sorted)
	data := payload
	if self != rootIdx {
		if data, err = c.Recv(sorted[(self+1)%n], tag); err != nil {
			return nil, err
		}
	}
	if next := (self + n - 1) % n; next != rootIdx {
		if err := c.Send(sorted[next], tag, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// CentralBarrier blocks until every node of the Conn has entered the
// barrier with this tag: all ranks report to rank 0, which then releases
// everyone. Two sub-tags keep arrival and release traffic distinct.
func CentralBarrier(c Conn, tag Tag) error {
	const (
		arrive  = Tag(1) << 62
		release = Tag(1) << 63
	)
	if c.Rank() == 0 {
		for r := 1; r < c.Size(); r++ {
			if _, err := c.Recv(r, tag|arrive); err != nil {
				return err
			}
		}
		for r := 1; r < c.Size(); r++ {
			if err := c.Send(r, tag|release, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(0, tag|arrive, nil); err != nil {
		return err
	}
	_, err := c.Recv(0, tag|release)
	return err
}

// SerialOrder coordinates the serial communication schedule of the paper's
// Fig 9: every rank calls it, rank 0's fn runs immediately, and rank r's fn
// runs only after rank r-1 has finished (a token passes down the rank
// chain). All ranks must call it with the same tag; fn errors propagate to
// the caller and stop the token.
func SerialOrder(c Conn, tag Tag, fn func() error) error {
	if c.Rank() > 0 {
		if _, err := c.Recv(c.Rank()-1, tag); err != nil {
			return err
		}
	}
	if err := fn(); err != nil {
		return err
	}
	if c.Rank() < c.Size()-1 {
		return c.Send(c.Rank()+1, tag, nil)
	}
	return nil
}

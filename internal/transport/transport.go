// Package transport defines the communication substrate that replaces Open
// MPI in the paper's implementation (Section V-A). The paper uses MPI_Send
// for TeraSort's unicast shuffle, MPI_Bcast for CodedTeraSort's
// application-layer multicast, and MPI_Comm_split to set up one
// communicator per multicast group. Here the same roles are played by:
//
//   - Conn: tagged point-to-point messaging between K ranked nodes
//     (implemented over in-process channels by memnet, real TCP by tcpnet,
//     and a virtual-time network by simnet).
//   - Collectives: Bcast (the application-layer multicast, relayed down a
//     chain of the group from the root through descending ranks, so every
//     member's egress carries a packet at most once and the member just
//     above the root only receives) and Barrier built generically on any
//     Conn.
//   - Meter: byte and message accounting used to measure communication
//     load, counting multicast payloads once (the paper's load metric) and
//     wire bytes separately.
package transport

import "errors"

// Tag disambiguates message flows between the same pair of nodes. Stages
// allocate disjoint tag ranges so interleaved traffic (barriers, shuffle
// rounds, stat gathering) never cross-matches.
type Tag uint64

// MakeTag packs a stage identifier and two 16-bit operands (typically a
// group rank and a sequence number) into a Tag.
func MakeTag(stage uint8, a, b uint16) Tag {
	return Tag(uint64(stage)<<32 | uint64(a)<<16 | uint64(b))
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Conn is tagged point-to-point messaging among Size() ranked nodes.
// Send is asynchronous (buffered, like MPI eager mode): it may return
// before the peer receives. Recv blocks until a message with the exact
// (from, tag) pair arrives or the endpoint closes. Messages between one
// (src, dst, tag) triple arrive in send order.
//
// Implementations must allow concurrent calls from multiple goroutines.
type Conn interface {
	// Rank returns this node's rank in [0, Size()).
	Rank() int
	// Size returns the number of nodes, K.
	Size() int
	// Send delivers payload to node `to` under the given tag. The payload
	// is not aliased after Send returns.
	Send(to int, tag Tag, payload []byte) error
	// Recv blocks for the next message from node `from` with the tag.
	Recv(from int, tag Tag) ([]byte, error)
	// Close releases resources and unblocks pending Recv calls with
	// ErrClosed.
	Close() error
}

// Endpoint extends Conn with the collective operations the sorting
// algorithms need.
type Endpoint interface {
	Conn
	// Bcast is a collective: every member of group calls it with the same
	// group, root and tag. The root's payload is returned at every member.
	// Non-root callers pass nil payload. Like Send, Bcast does not alias
	// the payload after it returns: every send it makes, a relay's forward
	// included, has completed by then.
	Bcast(group []int, root int, tag Tag, payload []byte) ([]byte, error)
	// Barrier blocks until all Size() nodes have entered it with this tag.
	Barrier(tag Tag) error
}

// withCollectives upgrades a Conn to an Endpoint using the generic
// collective algorithms in this package.
type withCollectives struct {
	Conn
}

// WithCollectives returns an Endpoint that runs the generic collectives
// over the given point-to-point Conn: ChainBcast and CentralBarrier.
func WithCollectives(c Conn) Endpoint {
	return withCollectives{Conn: c}
}

func (w withCollectives) Bcast(group []int, root int, tag Tag, payload []byte) ([]byte, error) {
	return ChainBcast(w.Conn, group, root, tag, payload)
}

func (w withCollectives) Barrier(tag Tag) error {
	return CentralBarrier(w.Conn, tag)
}

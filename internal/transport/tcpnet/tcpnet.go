// Package tcpnet is the real-socket transport: K ranked endpoints connected
// by a full mesh of TCP connections, with a framed wire protocol and
// per-sender demultiplexing into tag-matched mailboxes. It plays the role
// Open MPI's point-to-point layer plays in the paper's EC2 deployment
// (Section V-A); the multicast used for coded shuffling is application-layer
// (transport.ChainBcast: each packet relays down a chain of its group over
// these point-to-point sockets), exactly as the paper's MPI_Bcast is,
// because neither EC2 nor ordinary IP networks offer network-layer
// multicast to applications.
//
// Wire protocol, per message: 8-byte big-endian tag, 4-byte big-endian
// payload length, payload bytes. Connection setup: the higher-ranked node
// dials the lower-ranked node's listener and sends an 8-byte hello
// (4-byte magic, 4-byte rank).
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"codedterasort/internal/transport"
	"codedterasort/internal/transport/inbox"
)

const (
	helloMagic = 0xC0DE5047
	// maxFrame caps a single message to guard against corrupted length
	// headers; 1 GiB is far beyond any shuffle payload at test scale.
	maxFrame = 1 << 30
	// dialTimeout bounds how long an endpoint waits for a peer's listener
	// to come up during mesh establishment.
	dialTimeout = 10 * time.Second
)

// Endpoint is one node of a TCP mesh. Create with New (multi-process) or
// StartLocal (all ranks in one process, loopback).
type Endpoint struct {
	rank  int
	size  int
	ln    net.Listener
	conns []net.Conn // conns[peer], nil at self
	wmu   []sync.Mutex
	boxes []*inbox.Box
	wg    sync.WaitGroup
	once  sync.Once
}

// New creates the endpoint for the given rank. addrs lists the listen
// address of every rank; addrs[rank] must be this process's listener
// address (host:port with a concrete port). New blocks until the full mesh
// to all peers is established.
func New(rank int, addrs []string) (*Endpoint, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("tcpnet: rank %d with %d addresses", rank, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addrs[rank], err)
	}
	return connect(rank, addrs, ln)
}

// NewWithListener is New for callers that already hold their mesh listener
// (e.g. a worker that had to advertise a concrete port to the coordinator
// before learning its rank). ln must be listening at addrs[rank].
func NewWithListener(rank int, addrs []string, ln net.Listener) (*Endpoint, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("tcpnet: rank %d with %d addresses", rank, len(addrs))
	}
	return connect(rank, addrs, ln)
}

func connect(rank int, addrs []string, ln net.Listener) (*Endpoint, error) {
	size := len(addrs)
	e := &Endpoint{
		rank:  rank,
		size:  size,
		ln:    ln,
		conns: make([]net.Conn, size),
		wmu:   make([]sync.Mutex, size),
		boxes: make([]*inbox.Box, size),
	}
	for i := range e.boxes {
		e.boxes[i] = inbox.New()
	}

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	// Accept connections from all higher-ranked peers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for accepted := 0; accepted < size-1-rank; accepted++ {
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("tcpnet: accept: %w", err))
				return
			}
			peer, err := readHello(conn)
			if err != nil {
				conn.Close()
				fail(err)
				return
			}
			if peer <= rank || peer >= size {
				conn.Close()
				fail(fmt.Errorf("tcpnet: unexpected hello from rank %d", peer))
				return
			}
			mu.Lock()
			e.conns[peer] = conn
			mu.Unlock()
		}
	}()
	// Dial all lower-ranked peers.
	for peer := 0; peer < rank; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			conn, err := dialWithRetry(addrs[peer], dialTimeout)
			if err != nil {
				fail(fmt.Errorf("tcpnet: dial rank %d at %s: %w", peer, addrs[peer], err))
				return
			}
			if err := writeHello(conn, rank); err != nil {
				conn.Close()
				fail(err)
				return
			}
			mu.Lock()
			e.conns[peer] = conn
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	if firstErr != nil {
		e.Close()
		return nil, firstErr
	}
	// Start one demux reader per peer connection.
	for peer, conn := range e.conns {
		if conn == nil {
			continue
		}
		e.wg.Add(1)
		go e.readLoop(peer, conn)
	}
	return e, nil
}

// StartLocal creates a fully-connected mesh of size endpoints on loopback
// with dynamically assigned ports, all in this process. It is the
// single-machine stand-in for the paper's EC2 cluster.
func StartLocal(size int) ([]*Endpoint, error) {
	if size <= 0 {
		return nil, fmt.Errorf("tcpnet: non-positive size %d", size)
	}
	listeners := make([]net.Listener, size)
	addrs := make([]string, size)
	for r := 0; r < size; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:r] {
				l.Close()
			}
			return nil, err
		}
		listeners[r] = ln
		addrs[r] = ln.Addr().String()
	}
	eps := make([]*Endpoint, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eps[rank], errs[rank] = connect(rank, addrs, listeners[rank])
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.Close()
				}
			}
			return nil, err
		}
	}
	return eps, nil
}

func dialWithRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	wait := 2 * time.Millisecond
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(wait).After(deadline) {
			return nil, err
		}
		time.Sleep(wait)
		if wait < 250*time.Millisecond {
			wait *= 2
		}
	}
}

func writeHello(conn net.Conn, rank int) error {
	var h [8]byte
	binary.BigEndian.PutUint32(h[0:], helloMagic)
	binary.BigEndian.PutUint32(h[4:], uint32(rank))
	_, err := conn.Write(h[:])
	return err
}

func readHello(conn net.Conn) (int, error) {
	var h [8]byte
	if _, err := io.ReadFull(conn, h[:]); err != nil {
		return -1, fmt.Errorf("tcpnet: hello: %w", err)
	}
	if binary.BigEndian.Uint32(h[0:]) != helloMagic {
		return -1, errors.New("tcpnet: bad hello magic")
	}
	return int(binary.BigEndian.Uint32(h[4:])), nil
}

func (e *Endpoint) readLoop(peer int, conn net.Conn) {
	defer e.wg.Done()
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			e.boxes[peer].Close()
			return
		}
		tag := transport.Tag(binary.BigEndian.Uint64(hdr[0:]))
		n := binary.BigEndian.Uint32(hdr[8:])
		if n > maxFrame {
			e.boxes[peer].Close()
			conn.Close()
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(conn, payload); err != nil {
			e.boxes[peer].Close()
			return
		}
		if e.boxes[peer].Put(tag, payload) != nil {
			return
		}
	}
}

// Rank implements transport.Conn.
func (e *Endpoint) Rank() int { return e.rank }

// Size implements transport.Conn.
func (e *Endpoint) Size() int { return e.size }

// Send implements transport.Conn. Sends to self loop back in memory.
func (e *Endpoint) Send(to int, tag transport.Tag, payload []byte) error {
	if to < 0 || to >= e.size {
		return fmt.Errorf("tcpnet: rank %d out of range [0,%d)", to, e.size)
	}
	if to == e.rank {
		cp := append([]byte(nil), payload...)
		return e.boxes[e.rank].Put(tag, cp)
	}
	conn := e.conns[to]
	if conn == nil {
		return transport.ErrClosed
	}
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[0:], uint64(tag))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(payload)))
	e.wmu[to].Lock()
	defer e.wmu[to].Unlock()
	if _, err := conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("tcpnet: send to %d: %w", to, err)
	}
	if len(payload) > 0 {
		if _, err := conn.Write(payload); err != nil {
			return fmt.Errorf("tcpnet: send to %d: %w", to, err)
		}
	}
	return nil
}

// Recv implements transport.Conn.
func (e *Endpoint) Recv(from int, tag transport.Tag) ([]byte, error) {
	if from < 0 || from >= e.size {
		return nil, fmt.Errorf("tcpnet: rank %d out of range [0,%d)", from, e.size)
	}
	return e.boxes[from].Take(tag)
}

// Close implements transport.Conn: it closes the listener and all peer
// connections and unblocks pending receives.
func (e *Endpoint) Close() error {
	e.once.Do(func() {
		if e.ln != nil {
			e.ln.Close()
		}
		for _, conn := range e.conns {
			if conn != nil {
				conn.Close()
			}
		}
		for _, b := range e.boxes {
			b.Close()
		}
	})
	return nil
}

// Addr returns the endpoint's listen address.
func (e *Endpoint) Addr() net.Addr { return e.ln.Addr() }

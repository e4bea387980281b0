package main

import (
	"fmt"

	"codedterasort/internal/kv"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
	"codedterasort/internal/transport/tcpnet"
)

const (
	// streamFrame is the chunk size of the transport probe: ChunkRows 4096
	// records, what coded_stream_tcp puts in one message.
	streamFrame  = 4096 * kv.RecordSize
	streamWindow = 8
	dataTag      = transport.Tag(1)
	ackTag       = transport.Tag(2)
)

// stream pushes total bytes one way from a to b in streamFrame messages
// through a windowed StreamSender, b returning one credit per chunk —
// the streaming shuffle's flow control with nothing else attached.
func stream(a, b transport.Conn, total int64) error {
	frames := int(total / streamFrame)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			p, err := b.Recv(a.Rank(), dataTag)
			if err == nil {
				err = transport.StreamAck(b, a.Rank(), ackTag)
			}
			if err == nil && len(p) != streamFrame {
				err = fmt.Errorf("received a %d-byte frame, want %d", len(p), streamFrame)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	s := transport.NewStreamSender(a, b.Rank(), dataTag, ackTag, streamWindow)
	frame := make([]byte, streamFrame)
	for i := 0; i < frames; i++ {
		if err := s.Send(frame); err != nil {
			return err
		}
	}
	if err := s.Drain(); err != nil {
		return err
	}
	return <-done
}

// probeTransport times the input's size in bytes one way between two
// endpoints: over the in-memory mesh, over TCP loopback, and — a tenth of
// it — through the 400 Mbps shaper, whose error against the ideal line
// time says how faithfully the cap of the *_cap workloads is applied.
func probeTransport(s *shape) (map[string]float64, error) {
	total := s.c.rows * kv.RecordSize / streamFrame * streamFrame
	if total == 0 {
		total = streamFrame
	}

	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	mem, err := timeOp(probeReps, nil, func() error { return stream(mesh.Endpoint(0), mesh.Endpoint(1), total) })
	if err != nil {
		return nil, err
	}

	eps, err := tcpnet.StartLocal(2)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	tcp, err := timeOp(probeReps, nil, func() error { return stream(eps[0], eps[1], total) })
	if err != nil {
		return nil, err
	}

	shapedBytes := max(total/10/streamFrame, 1) * streamFrame
	limited := netem.Limit(mesh.Endpoint(0), netem.Options{RateMbps: capMbps})
	shaped, err := timeOp(3, nil, func() error { return stream(limited, mesh.Endpoint(1), shapedBytes) })
	if err != nil {
		return nil, err
	}
	ideal := float64(shapedBytes) * 8 / (capMbps * 1e6)
	return map[string]float64{
		"transport.memnet_mb_s": mbPerS(total, mem),
		"transport.tcpnet_mb_s": mbPerS(total, tcp),
		"transport.netem_err":   shaped/ideal - 1,
	}, nil
}

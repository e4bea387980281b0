package transport_test

import (
	"bytes"
	"testing"
	"time"

	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
	"codedterasort/internal/transport/tcpnet"
)

// TestBcastResultIsUnaliased pins the contract in-place decoding relies on:
// the buffer Bcast returns belongs to the caller alone. At every member of
// a group of four — the root, two relays and the last member of the chain —
// and for every root, one member overwrites what its Bcast returned (the
// root: its own payload) right after the call, and every other member
// still holds the original bytes. It holds over memnet, tcpnet, a shaped
// mesh and a metered one.
func TestBcastResultIsUnaliased(t *testing.T) {
	const k = 4
	group := []int{0, 1, 2, 3}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	memnetMesh := func(wrap func(transport.Conn) transport.Conn) func(*testing.T) []transport.Endpoint {
		return func(t *testing.T) []transport.Endpoint {
			mesh := memnet.NewMesh(k)
			t.Cleanup(mesh.Close)
			eps := make([]transport.Endpoint, k)
			for r := range eps {
				eps[r] = transport.WithCollectives(wrap(mesh.Endpoint(r)))
			}
			return eps
		}
	}
	for _, c := range []struct {
		name string
		open func(*testing.T) []transport.Endpoint
	}{
		{"memnet", memnetMesh(func(c transport.Conn) transport.Conn { return c })},
		{"tcpnet", func(t *testing.T) []transport.Endpoint {
			tcp, err := tcpnet.StartLocal(k)
			if err != nil {
				t.Fatal(err)
			}
			eps := make([]transport.Endpoint, k)
			for r, ep := range tcp {
				t.Cleanup(func() { ep.Close() })
				eps[r] = transport.WithCollectives(ep)
			}
			return eps
		}},
		{"netem", memnetMesh(func(c transport.Conn) transport.Conn {
			return netem.Limit(c, netem.Options{RateMbps: 2000, PerMessage: 50 * time.Microsecond})
		})},
		{"meter", memnetMesh(func(c transport.Conn) transport.Conn { return transport.NewMeter(c) })},
	} {
		t.Run(c.name, func(t *testing.T) {
			eps := c.open(t)
			for root := 0; root < k; root++ {
				for writer := 0; writer < k; writer++ {
					tag := transport.MakeTag(0x61, uint16(root), uint16(writer))
					got := make([][]byte, k)
					errs := runRanks(t, k, 10*time.Second, func(rank int) error {
						var p []byte
						if rank == root {
							p = append([]byte(nil), payload...)
						}
						out, err := eps[rank].Bcast(group, root, tag, p)
						if err != nil {
							return err
						}
						if rank == writer {
							for i := range out {
								out[i] = ^out[i]
							}
						}
						got[rank] = out
						return nil
					})
					for rank, err := range errs {
						if err != nil {
							t.Fatalf("root %d writer %d: rank %d: %v", root, writer, rank, err)
						}
					}
					for rank := range got {
						if rank != writer && !bytes.Equal(got[rank], payload) {
							t.Fatalf("root %d: rank %d's bytes changed when rank %d overwrote its own", root, rank, writer)
						}
					}
				}
			}
		})
	}
}

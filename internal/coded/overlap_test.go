package coded

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"hash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
)

// stageLog records, in one order across every rank, each output block a
// rank's sink took and each stage its hooks reported.
type stageLog struct {
	mu     sync.Mutex
	events []stageLogEvent
}

type stageLogEvent struct {
	rank  int
	block bool        // an output block, else a stage
	stage stats.Stage // the stage that ended
}

func (l *stageLog) add(e stageLogEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// countingConn counts the multicast messages its rank sends.
type countingConn struct {
	transport.Conn
	msgs *atomic.Int64
}

func (c countingConn) Send(to int, tag transport.Tag, payload []byte) error {
	if uint8(tag>>56) == tagMulticast {
		c.msgs.Add(1)
	}
	return c.Conn.Send(to, tag, payload)
}

// digestedRun is what runDigested reads off a run: the SHA-256 of each
// rank's output blocks in order, and the multicast messages, packets and
// packet bytes all ranks sent.
type digestedRun struct {
	sums             [][]byte
	msgs, ops, bytes int64
}

// runDigested runs every rank of cfg over an in-memory mesh whose egress
// is capped at rateMbps (uncapped at 0), the job's own cap too, streaming
// each rank's output to a sink.
func runDigested(t *testing.T, cfg Config, rateMbps float64, log *stageLog) digestedRun {
	t.Helper()
	mesh := memnet.NewMesh(cfg.K)
	defer mesh.Close()
	sums := make([]hash.Hash, cfg.K)
	results := make([]Result, cfg.K)
	errs := make([]error, cfg.K)
	var msgs atomic.Int64
	var wg sync.WaitGroup
	for rank := 0; rank < cfg.K; rank++ {
		sums[rank] = sha256.New()
		c := cfg
		c.RateMbps = rateMbps
		c.OutputSink = func(block kv.Records) error {
			sums[rank].Write(block.Bytes())
			log.add(stageLogEvent{rank: rank, block: true})
			return nil
		}
		c.Hooks = func(ev StageEvent) { log.add(stageLogEvent{rank: rank, stage: ev.Stage}) }
		var conn transport.Conn = countingConn{mesh.Endpoint(rank), &msgs}
		if rateMbps > 0 {
			conn = netem.Limit(conn, netem.Options{RateMbps: rateMbps})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[rank], errs[rank] = Run(transport.WithCollectives(conn), withInput(c))
		}()
	}
	wg.Wait()
	out := digestedRun{sums: make([][]byte, cfg.K), msgs: msgs.Load()}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		out.sums[rank] = sums[rank].Sum(nil)
		out.ops += results[rank].SentOps
		out.bytes += results[rank].SentBytes
	}
	return out
}

// TestReduceOverlapsCappedShuffle: under a bandwidth cap and the serial
// schedule of Fig 9, rank K-1 holds its whole partition before its own
// turn on the wire begins, so its reducer must hand the sink the last
// output block while the rank is still sending — before its Shuffle stage
// ends. The order of the sink's and the hooks' events shows it, not a
// clock. The capped outputs are the uncapped run's, rank for rank.
func TestReduceOverlapsCappedShuffle(t *testing.T) {
	const k = 4
	for _, r := range []int{1, 2} {
		cfg := cfgOf(job.Spec{K: k, R: r, Rows: 8000, Seed: 12})
		want := runDigested(t, cfg, 0, &stageLog{}).sums
		var log stageLog
		got := runDigested(t, cfg, 4, &log).sums
		for rank := range got {
			if !bytes.Equal(got[rank], want[rank]) {
				t.Fatalf("r=%d rank %d: capped output differs from the uncapped run's", r, rank)
			}
		}
		lastBlock, shuffleEnd := -1, -1
		for i, e := range log.events {
			switch {
			case e.rank != k-1:
			case e.block:
				lastBlock = i
			case e.stage == stats.StageShuffle:
				shuffleEnd = i
			}
		}
		if lastBlock < 0 || shuffleEnd < 0 || lastBlock > shuffleEnd {
			t.Fatalf("r=%d: rank %d handed over its last output block at event %d, its Shuffle ended at event %d",
				r, k-1, lastBlock, shuffleEnd)
		}
	}
}

// TestCappedShuffleSegmentsMatchUncapped: under a cap the monolithic
// Shuffle sends every packet as a run of segments, each relayed on its own
// (more messages than hops), yet each rank's output is the uncapped run's
// byte for byte, and the packets and their bytes are the same; without a
// cap every packet is one message per hop (r hops in a clique group).
func TestCappedShuffleSegmentsMatchUncapped(t *testing.T) {
	for r := 1; r <= 3; r++ {
		cfg := cfgOf(job.Spec{K: 4, R: r, Rows: 8000, Seed: 21})
		free := runDigested(t, cfg, 0, &stageLog{})
		capped := runDigested(t, cfg, 40, &stageLog{})
		if free.msgs != int64(r)*free.ops {
			t.Fatalf("r=%d uncapped: %d multicast messages for %d packets, want %d", r, free.msgs, free.ops, int64(r)*free.ops)
		}
		if capped.ops != free.ops || capped.bytes != free.bytes {
			t.Fatalf("r=%d: capped run sent %d packets of %d bytes, uncapped %d of %d",
				r, capped.ops, capped.bytes, free.ops, free.bytes)
		}
		if capped.msgs <= 2*free.msgs || capped.msgs%int64(r) != 0 {
			t.Fatalf("r=%d: %d capped multicast messages against %d uncapped: packets not cut into relayed segments",
				r, capped.msgs, free.msgs)
		}
		for rank := range free.sums {
			if !bytes.Equal(capped.sums[rank], free.sums[rank]) {
				t.Fatalf("r=%d rank %d: segmented output differs from the uncapped run's", r, rank)
			}
		}
	}
}

// truncatingConn cuts the last byte off the first packet its rank
// receives from peer from, so that packet fails to decode here. A relay
// still forwards it whole, so the peers behind this rank do not fail with
// it but wait on what this rank no longer relays. The rank's receivers
// call Recv concurrently.
type truncatingConn struct {
	transport.Conn
	from int

	mu    sync.Mutex
	done  bool
	whole []byte        // the packet cut, until it is forwarded
	tag   transport.Tag // its tag
}

func (c *truncatingConn) Recv(from int, tag transport.Tag) ([]byte, error) {
	p, err := c.Conn.Recv(from, tag)
	if err != nil || from != c.from || len(p) <= 1 {
		return p, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return p, nil
	}
	c.done, c.whole, c.tag = true, p, tag
	return p[:len(p)-1], nil
}

func (c *truncatingConn) Send(to int, tag transport.Tag, payload []byte) error {
	c.mu.Lock()
	if c.whole != nil && tag == c.tag {
		payload, c.whole = c.whole, nil
	}
	c.mu.Unlock()
	return c.Conn.Send(to, tag, payload)
}

// TestReducerStopsWithItsRank: however a rank's run ends — a kill or a
// stall at Shuffle or at Reduce, a receive that fails, a sink that fails —
// its reducer has returned by the time the rank does, so no sink takes a
// block from a rank that has returned; and a rank whose partition never
// fully arrived hands its sink nothing, even while it is still sending.
func TestReducerStopsWithItsRank(t *testing.T) {
	const k = 4
	sinkErr := errors.New("sink refused the block")
	stall := 20 * time.Millisecond
	for _, tc := range []struct {
		name  string
		fault job.FaultSpec
		// The ranks that never hold their whole partition.
		incomplete []int
		// Rank 0's first segment from rank 1 fails to decode, early in a
		// capped Shuffle. Under ParallelShuffle rank 0 still has packets to
		// send then. Under the serial schedule at r = 2, rank 0 relays that
		// segment in {0,1,2} but no later one, so rank 2 waits on root 1
		// and never relays root 3's packet in {0,2,3}: rank 0 must report
		// its error without waiting for that packet.
		badPacket bool
		parallel  bool
		failSink  int // the rank whose sink fails, or -1
	}{
		{name: "kill at Shuffle", fault: job.FaultSpec{Rank: k - 1, Stage: "Shuffle", Kind: job.FaultKill},
			incomplete: []int{0, 1, 2}, failSink: -1},
		{name: "kill at Reduce", fault: job.FaultSpec{Rank: k - 1, Stage: "Reduce", Kind: job.FaultKill}, failSink: -1},
		{name: "stall at Shuffle", fault: job.FaultSpec{Rank: 1, Stage: "Shuffle", Kind: job.FaultSlow, Delay: stall}, failSink: -1},
		{name: "stall at Reduce", fault: job.FaultSpec{Rank: 1, Stage: "Reduce", Kind: job.FaultSlow, Delay: stall}, failSink: -1},
		{name: "receive error", badPacket: true, parallel: true, incomplete: []int{0}, failSink: -1},
		{name: "receive error, serial", badPacket: true, incomplete: []int{0}, failSink: -1},
		{name: "sink error", failSink: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range []int{1, 2} {
				spec := job.Spec{K: k, R: r, Rows: 20000, Seed: 8, ParallelShuffle: tc.parallel}
				if tc.fault.Kind != "" {
					spec.Faults = []job.FaultSpec{tc.fault}
				}
				if tc.badPacket {
					spec.RateMbps = 20 // cut the packets into segments
				}
				cfg := cfgOf(spec)
				mesh := memnet.NewMesh(k)
				var closeMesh sync.Once
				blocks := make([]atomic.Int64, k)
				returned := make([]atomic.Bool, k)
				errs := make([]error, k)
				var wg sync.WaitGroup
				for rank := 0; rank < k; rank++ {
					c := cfg
					c.OutputSink = func(kv.Records) error {
						if returned[rank].Load() {
							t.Errorf("r=%d rank %d: sink took a block after the rank returned", r, rank)
						}
						blocks[rank].Add(1)
						if rank == tc.failSink {
							return sinkErr
						}
						return nil
					}
					var conn transport.Conn = mesh.Endpoint(rank)
					if tc.badPacket {
						conn = netem.Limit(conn, netem.Options{RateMbps: spec.RateMbps})
						if rank == 0 {
							conn = &truncatingConn{Conn: conn, from: 1}
						}
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						ep := transport.WithCollectives(conn)
						w, err := newWorker(ep, withInput(c))
						if err == nil {
							name, stages := w.schedule()
							err = w.run(stats.NewWallClock(), name, stages)
						}
						returned[rank].Store(true)
						if err != nil {
							// Release the peers waiting on this rank.
							closeMesh.Do(mesh.Close)
						}
						if w != nil && w.reducer != nil {
							select {
							case <-w.reducer.exited:
							default:
								t.Errorf("r=%d rank %d: returned (%v) with its reducer still running", r, rank, err)
							}
						}
						errs[rank] = err
					}()
				}
				wg.Wait()
				closeMesh.Do(mesh.Close)
				for rank, err := range errs {
					switch {
					case tc.fault.Kind == job.FaultSlow && err != nil:
						t.Fatalf("r=%d rank %d: a stall failed the run: %v", r, rank, err)
					case rank == tc.failSink && !errors.Is(err, sinkErr):
						t.Fatalf("r=%d rank %d: err %v, want the sink's", r, rank, err)
					case tc.badPacket && rank == 0 && (err == nil || !strings.Contains(err.Error(), "decode")):
						t.Fatalf("r=%d rank 0: err %v, want the decode failure", r, err)
					case slices.Contains(tc.incomplete, rank) && blocks[rank].Load() > 0:
						t.Fatalf("r=%d rank %d: sink took %d blocks of a partition that never fully arrived",
							r, rank, blocks[rank].Load())
					}
				}
			}
		})
	}
}

// TestReceiveErrorEndsChunkedShuffle: a receive error ends the rank's
// chunked Shuffle at once, also while the rank waits for its turn to send.
// Rank 2's first chunk from root 1 fails to decode, so rank 2 stops
// returning root 1's credits; under the serial schedule root 1 then waits
// on its window while it holds the send token rank 2 waits for. Rank 2
// must return its error, and the job must end, well inside the bound.
func TestReceiveErrorEndsChunkedShuffle(t *testing.T) {
	const k, bound = 4, 10 * time.Second
	for _, parallel := range []bool{false, true} {
		spec := job.Spec{K: k, R: 1, Rows: 20000, Seed: 8, ChunkRows: 50, Window: 2, ParallelShuffle: parallel}
		cfg := cfgOf(spec)
		mesh := memnet.NewMesh(k)
		var closeMesh sync.Once
		errs := make([]error, k)
		var wg sync.WaitGroup
		for rank := range k {
			var conn transport.Conn = mesh.Endpoint(rank)
			if rank == 2 {
				conn = &truncatingConn{Conn: conn, from: 1}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, err := newWorker(transport.WithCollectives(conn), withInput(cfg))
				if err == nil {
					name, stages := w.schedule()
					err = w.run(stats.NewWallClock(), name, stages)
				}
				if err != nil {
					// Release the peers waiting on this rank.
					closeMesh.Do(mesh.Close)
				}
				errs[rank] = err
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(bound):
			closeMesh.Do(mesh.Close)
			<-done
			t.Fatalf("parallel=%v: the job did not end within %v of rank 2's receive error", parallel, bound)
		}
		closeMesh.Do(mesh.Close)
		if err := errs[2]; err == nil || !strings.Contains(err.Error(), "chunk") {
			t.Fatalf("parallel=%v: rank 2 returned %v, want its failed chunk", parallel, err)
		}
	}
}

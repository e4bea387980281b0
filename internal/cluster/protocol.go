package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// Control-plane wire protocol between coordinator and workers: 4-byte
// big-endian length followed by a JSON document. One conversation serves
// every attempt of every job: register (worker -> coordinator) and assign
// (coordinator -> worker, with the attempt's spec), then the worker wraps
// all its traffic in workerMsg frames — a progress event after each
// completed stage, liveness heartbeats when Spec.StageDeadline is armed,
// and finally its report — while the coordinator may send an abort frame
// that tells a worker to cancel its attempt (close its mesh) instead of
// waiting forever on a dead peer.

// MaxControlFrame caps control messages; they carry no record data.
const MaxControlFrame = 16 << 20

// registerMsg announces a worker and the address of its mesh listener.
type registerMsg struct {
	MeshAddr string `json:"mesh_addr"`
}

// assignMsg gives a worker its rank, the full mesh address list, and the
// job spec.
type assignMsg struct {
	Rank  int      `json:"rank"`
	Addrs []string `json:"addrs"`
	Spec  Spec     `json:"spec"`
}

// reportMsg returns a worker's results; Err is non-empty on failure.
type reportMsg struct {
	WorkerReport
	Err string `json:"err,omitempty"`
}

// progressMsg is one liveness/progress event:
// a completed stage (Stage set, named per stats.ParseStage) or a bare
// heartbeat (Stage empty). Either form proves the worker alive.
type progressMsg struct {
	Rank    int           `json:"rank"`
	Stage   string        `json:"stage,omitempty"`
	Elapsed time.Duration `json:"elapsed,omitempty"`
}

// workerMsg is the worker -> coordinator frame after assignment: a
// progress event or the final report, exactly one set.
type workerMsg struct {
	Progress *progressMsg `json:"progress,omitempty"`
	Report   *reportMsg   `json:"report,omitempty"`
}

// abortMsg is the coordinator -> worker frame after assignment: cancel
// the attempt (the worker closes its mesh, unblocking its run with
// ErrClosed) because a peer was declared dead or straggling.
type abortMsg struct {
	Reason string `json:"reason"`
}

// writeFrame sends one length-prefixed JSON message.
func writeFrame(conn net.Conn, v any) error {
	p, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cluster: encode frame: %w", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("cluster: write frame header: %w", err)
	}
	if _, err := conn.Write(p); err != nil {
		return fmt.Errorf("cluster: write frame body: %w", err)
	}
	return nil
}

// readFrame receives one length-prefixed JSON message into v.
func readFrame(conn net.Conn, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return fmt.Errorf("cluster: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxControlFrame {
		return fmt.Errorf("cluster: control frame of %d bytes exceeds limit", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(conn, p); err != nil {
		return fmt.Errorf("cluster: read frame body: %w", err)
	}
	if err := json.Unmarshal(p, v); err != nil {
		return fmt.Errorf("cluster: decode frame: %w", err)
	}
	return nil
}

package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"
)

// leakSnapshot is what a process holds before a job: its goroutines and
// open file descriptors.
type leakSnapshot struct {
	goroutines int
	fds        map[string]bool
}

// snapshotLeaks records the goroutines and descriptors a job must leave as
// it found them.
func snapshotLeaks() leakSnapshot {
	// The runtime opens its network poller's descriptors on first use and
	// keeps them: open them before the snapshot, not during the job.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	return leakSnapshot{runtime.NumGoroutine(), openFDs()}
}

// openFDs lists the process's open descriptors as "fd -> target", or nil
// where /proc/self/fd does not exist.
func openFDs() map[string]bool {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	fds := map[string]bool{}
	for _, e := range entries {
		// The directory's own descriptor is closed by now and reads no link.
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil {
			fds[e.Name()+" -> "+target] = true
		}
	}
	return fds
}

// check gives exiting goroutines and closing descriptors two seconds to
// settle, then reports every goroutine and descriptor beyond the snapshot
// and every entry left in the spill directories.
func (s leakSnapshot) check(spillDirs ...string) error {
	var leaked []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		leaked = leaked[:0]
		if n := runtime.NumGoroutine(); n > s.goroutines {
			leaked = append(leaked, fmt.Sprintf("%d goroutines", n-s.goroutines))
		}
		if s.fds != nil {
			for fd := range openFDs() {
				if !s.fds[fd] {
					leaked = append(leaked, "fd "+fd)
				}
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, dir := range spillDirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			leaked = append(leaked, "spill entry "+e.Name())
		}
	}
	if len(leaked) > 0 {
		return errors.New("leaked " + strings.Join(leaked, ", "))
	}
	return nil
}

// Command sortd is the multi-tenant sort service daemon: it serves the
// internal/service HTTP JSON API (submit, status, metrics, drain) over
// one shared count of rank slots, so many tenants' sort jobs run
// concurrently in one process instead of one-shot CLI invocations. SIGTERM or SIGINT (or
// POST /v1/drain) starts a graceful drain: admission stops, running jobs
// get -drain-timeout to finish, stragglers are checkpoint-canceled, and
// the process exits.
//
// Usage:
//
//	sortd -addr 127.0.0.1:8371 -slots 8
//	sortd -addr 127.0.0.1:0 -addr-file /tmp/sortd.addr \
//	      -tenant acme:10:5:10 -tenant guest:1:0.5:2:4:1
//
// Each -tenant defines admission limits (service.Limits) as
// name:priority[:rate[:burst[:maxqueued[:maxrunning]]]]; a repeated name
// takes its last definition, and a tenant not defined is admitted without
// limits, at priority 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"codedterasort/internal/service"
)

// tenantFlag is one parsed -tenant definition.
type tenantFlag struct {
	name   string
	limits service.Limits
}

// tenantFlags collects repeated -tenant values.
type tenantFlags []tenantFlag

func (t *tenantFlags) String() string {
	names := make([]string, len(*t))
	for i, tf := range *t {
		names[i] = tf.name
	}
	return strings.Join(names, ",")
}

// Set parses name:priority[:rate[:burst[:maxqueued[:maxrunning]]]].
func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if parts[0] == "" {
		return fmt.Errorf("tenant %q: empty name", v)
	}
	tf := tenantFlag{name: parts[0]}
	fields := []struct {
		name string
		set  func(string) error
	}{
		{"priority", func(s string) error {
			n, err := strconv.Atoi(s)
			tf.limits.Priority = n
			return err
		}},
		{"rate", func(s string) error {
			f, err := strconv.ParseFloat(s, 64)
			tf.limits.RatePerSec = f
			return err
		}},
		{"burst", func(s string) error {
			n, err := strconv.Atoi(s)
			tf.limits.Burst = n
			return err
		}},
		{"maxqueued", func(s string) error {
			n, err := strconv.Atoi(s)
			tf.limits.MaxQueued = n
			return err
		}},
		{"maxrunning", func(s string) error {
			n, err := strconv.Atoi(s)
			tf.limits.MaxRunning = n
			return err
		}},
	}
	if len(parts)-1 > len(fields) {
		return fmt.Errorf("tenant %q: too many fields (want name:priority[:rate[:burst[:maxqueued[:maxrunning]]]])", v)
	}
	for i, s := range parts[1:] {
		if s == "" {
			continue
		}
		if err := fields[i].set(s); err != nil {
			return fmt.Errorf("tenant %q: bad %s: %v", v, fields[i].name, err)
		}
	}
	*t = append(*t, tf)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sortd: ")
	addr := flag.String("addr", "127.0.0.1:8371", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	slots := flag.Int("slots", 8, "rank slots shared by all concurrent jobs")
	queue := flag.Int("queue", 64, "global cap on queued jobs across all tenants")
	spill := flag.String("spill", "", "base directory for job-scoped spill namespaces (default system temp)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second,
		"how long a drain waits for running jobs before checkpoint-canceling them")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant",
		"tenant admission limits as name:priority[:rate[:burst[:maxqueued[:maxrunning]]]] (repeatable)")
	flag.Parse()

	limits := map[string]service.Limits{}
	for _, tf := range tenants {
		if err := tf.limits.Validate(); err != nil {
			log.Fatalf("-tenant %s: %v", tf.name, err)
		}
		limits[tf.name] = tf.limits
	}

	srv := service.New(service.Config{
		PoolSlots:    *slots,
		MaxQueue:     *queue,
		SpillRoot:    *spill,
		Tenants:      limits,
		DrainTimeout: *drainTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s (slots=%d queue=%d tenants=[%s])", bound, *slots, *queue, tenants.String())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case s := <-sig:
		log.Printf("%v: draining (timeout %v)", s, *drainTimeout)
		if forced := srv.Drain(); forced {
			log.Print("drain timeout: running jobs checkpoint-canceled")
		}
	case <-srv.Drained():
		// Drain arrived over the API; nothing left to stop but the listener.
		log.Print("drained via API")
	case err := <-serveErr:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Print("exit")
}

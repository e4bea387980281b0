// Command sortctl is the client for a running sortd: it submits jobs,
// watches them, lists a tenant's work, scrapes metrics and triggers
// graceful drain — the same HTTP JSON API the service tests and the CI
// smoke exercise, packaged for operators. -r picks a submitted job's
// algorithm: a bare submit is TeraSort (r = 1), -r 2 and up CodedTeraSort.
//
// Usage:
//
//	sortctl submit -addr 127.0.0.1:8371 -tenant acme -rows 100000 -wait
//	sortctl submit -tenant acme -r 3 -k 6 -rows 200000
//	sortctl status -id job-000001
//	sortctl wait -id job-000001 -timeout 5m
//	sortctl list -tenant acme
//	sortctl metrics
//	sortctl drain
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	jobflags "codedterasort/cmd/internal/flags"
	"codedterasort/internal/cluster"
	"codedterasort/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(args)
	case "status":
		err = cmdStatus(args, false)
	case "wait":
		err = cmdStatus(args, true)
	case "list":
		err = cmdList(args)
	case "metrics":
		err = cmdMetrics(args)
	case "drain":
		err = cmdDrain(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sortctl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sortctl {submit|status|wait|list|metrics|drain} [flags]")
	os.Exit(2)
}

// common binds the flags every subcommand shares and returns the getters.
func common(fs *flag.FlagSet) (addr *string, timeout *time.Duration) {
	addr = fs.String("addr", "127.0.0.1:8371", "sortd address")
	timeout = fs.Duration("timeout", 10*time.Minute, "overall deadline for this command")
	return
}

// faultFlags parses repeated -fault rank:stage:kind values into the
// spec's injected-fault list (exercising the service's recovery path from
// the command line).
type faultFlags struct {
	specs []cluster.FaultSpec
}

func (f *faultFlags) String() string { return fmt.Sprintf("%d faults", len(f.specs)) }

func (f *faultFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("fault %q: want rank:stage:kind", v)
	}
	rank, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("fault %q: bad rank: %v", v, err)
	}
	f.specs = append(f.specs, cluster.FaultSpec{Rank: rank, Stage: parts[1], Kind: parts[2]})
	return nil
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("sortctl submit", flag.ExitOnError)
	addr, timeout := common(fs)
	tenantName := fs.String("tenant", "default", "tenant submitting the job")
	wait := fs.Bool("wait", false, "block until the job finishes and print its final status")
	var faults faultFlags
	fs.Var(&faults, "fault", "inject a fault as rank:stage:kind (repeatable; kind kill or slow, pair with -deadline and -max-attempts for recovery)")
	var job jobflags.Job
	job.RegisterCommon(fs, 4)
	job.RegisterCoded(fs, 1)
	job.RegisterFaults(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := job.ToSpec()
	spec.Faults = faults.specs
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := service.NewClient(*addr)
	st, err := c.Submit(ctx, service.SubmitRequest{Tenant: *tenantName, Spec: spec})
	if err != nil {
		return err
	}
	if *wait {
		if st, err = c.WaitJob(ctx, st.ID); err != nil {
			return err
		}
	}
	return printJSON(st)
}

func cmdStatus(args []string, wait bool) error {
	name := "sortctl status"
	if wait {
		name = "sortctl wait"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	addr, timeout := common(fs)
	id := fs.String("id", "", "job ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := service.NewClient(*addr)
	var st service.JobStatus
	var err error
	if wait {
		st, err = c.WaitJob(ctx, *id)
	} else {
		st, err = c.Job(ctx, *id)
	}
	if err != nil {
		return err
	}
	if err := printJSON(st); err != nil {
		return err
	}
	if wait && st.State != service.StateDone {
		return fmt.Errorf("job %s finished %s", st.ID, st.State)
	}
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("sortctl list", flag.ExitOnError)
	addr, timeout := common(fs)
	tenantName := fs.String("tenant", "", "only this tenant's jobs (default all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	jobs, err := service.NewClient(*addr).Jobs(ctx, *tenantName)
	if err != nil {
		return err
	}
	return printJSON(jobs)
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("sortctl metrics", flag.ExitOnError)
	addr, timeout := common(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	m, err := service.NewClient(*addr).Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Print(m)
	return nil
}

func cmdDrain(args []string) error {
	fs := flag.NewFlagSet("sortctl drain", flag.ExitOnError)
	addr, timeout := common(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := service.NewClient(*addr).Drain(ctx); err != nil {
		return err
	}
	fmt.Println("draining")
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

package flags

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"codedterasort/internal/job"
)

// TestRegisterAndFor: the canonical flag names parse into a spec for both
// engines, -r choosing between them. Neither spec drops a flag: the coded
// spec keeps the input dir and the TeraSort spec the placement, each for
// Resolve to refuse.
func TestRegisterAndFor(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var j Job
	j.RegisterCommon(fs, 8)
	j.RegisterCoded(fs, 3)
	j.RegisterInDir(fs)
	err := fs.Parse([]string{
		"-k", "6", "-r", "2", "-rows", "1234", "-seed", "99", "-dist", "skewed",
		"-strategy", "resolvable", "-rate", "100", "-permsg", "5ms", "-chunk", "500",
		"-window", "8", "-membudget", "65536", "-spilldir", "/tmp/x",
		"-indir", "/tmp/in", "-procs", "4",
	})
	if err != nil {
		t.Fatal(err)
	}

	coded := j.ToSpec()
	if coded.Algorithm != job.AlgCoded || coded.K != 6 || coded.R != 2 || coded.Rows != 1234 || coded.Seed != 99 ||
		coded.DistName != "skewed" || coded.Placement != "resolvable" || coded.RateMbps != 100 ||
		coded.PerMessage != 5*time.Millisecond || coded.ChunkRows != 500 ||
		coded.Window != 8 || coded.MemBudget != 65536 || coded.SpillDir != "/tmp/x" ||
		coded.Parallelism != 4 {
		t.Fatalf("coded spec: %+v", coded)
	}
	if coded.InputDir != "/tmp/in" {
		t.Fatalf("coded spec dropped the input dir: %+v", coded)
	}
	if err := coded.Validate(); err == nil || !strings.Contains(err.Error(), "input dir is TeraSort-only") {
		t.Fatalf("coded spec with an input dir: Validate = %v", err)
	}

	j.R = 1
	tera := j.ToSpec()
	if tera.Algorithm != job.AlgTeraSort || tera.R != 0 || tera.Placement != "resolvable" {
		t.Fatalf("terasort spec: %+v", tera)
	}
	if err := tera.Validate(); err == nil || !strings.Contains(err.Error(), "placement requires the coded algorithm") {
		t.Fatalf("terasort spec with a resolvable placement: Validate = %v", err)
	}
	j.Placement = ""
	tera = j.ToSpec()
	if tera.InputDir != "/tmp/in" {
		t.Fatalf("terasort spec lost the input dir: %+v", tera)
	}
	if err := tera.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyRefusedOnTeraSortSpec: -strategy resolvable at r = 1 reaches
// the spec, and the one validator refuses it, instead of the job running a
// clique TeraSort in its place.
func TestStrategyRefusedOnTeraSortSpec(t *testing.T) {
	spec := parseAt(t, 6, 3, "-r", "1", "-strategy", "resolvable").ToSpec()
	if spec.Algorithm != job.AlgTeraSort || spec.Placement != "resolvable" {
		t.Fatalf("spec: %+v", spec)
	}
	if err := spec.Validate(); err == nil || err.Error() != "job: resolvable placement requires the coded algorithm" {
		t.Fatalf("Validate = %v, want the coded-only refusal", err)
	}
}

// TestInDirRefusedOnCodedSpec: -indir at r >= 2 reaches the spec, and the
// one validator refuses it, instead of the job sorting generated rows in
// place of the files it was given.
func TestInDirRefusedOnCodedSpec(t *testing.T) {
	spec := parseAt(t, 8, 3, "-r", "2", "-indir", "/tmp/in").ToSpec()
	if spec.InputDir != "/tmp/in" {
		t.Fatalf("spec dropped the input dir: %+v", spec)
	}
	if err := spec.Validate(); err == nil || err.Error() != "job: input dir is TeraSort-only" {
		t.Fatalf("Validate = %v, want the TeraSort-only refusal", err)
	}
}

// TestDefaults: defaults match the historical per-binary flag defaults,
// and the parameterized K default lands.
func TestDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var j Job
	j.RegisterCommon(fs, 4)
	j.RegisterCoded(fs, 2)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if j.K != 4 || j.R != 2 || j.Rows != 100000 || j.Seed != 2017 {
		t.Fatalf("defaults: %+v", j)
	}
	if j.ChunkRows != 0 || j.Window != 0 || j.MemBudget != 0 || j.Parallelism != 0 {
		t.Fatalf("policy defaults must be zero (mono schedule): %+v", j)
	}
}

// TestProcsOnly: the worker's reduced surface registers only -procs.
func TestProcsOnly(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var j Job
	j.RegisterProcs(fs, "custom usage")
	if err := fs.Parse([]string{"-procs", "3"}); err != nil {
		t.Fatal(err)
	}
	if j.Parallelism != 3 {
		t.Fatalf("procs: %d", j.Parallelism)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 1 {
		t.Fatalf("%d flags registered, want 1", n)
	}
}

// diffFields names the job.Spec fields in which a and b differ.
func diffFields(a, b job.Spec) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// TestEveryFlagLandsInTheSpec: each registered flag, set alone to a
// non-default value, changes exactly one field of the resulting spec — so a
// flag cannot be registered and then dropped on the way to the job, and two
// flags cannot share a field. A flag added later is picked up by VisitAll
// and held to the same rule.
func TestEveryFlagLandsInTheSpec(t *testing.T) {
	register := func() (*flag.FlagSet, *Job) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		j := &Job{}
		j.RegisterCommon(fs, 8)
		j.RegisterCoded(fs, 3)
		j.RegisterFaults(fs)
		j.RegisterInDir(fs)
		return fs, j
	}
	// What a flag needs beside itself: -straggler-rank survives only next
	// to an effective -stragglers.
	with := map[string][]string{"straggler-rank": {"-stragglers", "4"}}
	// Where each flag must land.
	field := map[string]string{
		"k": "K", "r": "R", "strategy": "Placement", "rows": "Rows", "seed": "Seed",
		"dist": "DistName", "partition": "Partitioning", "samples": "SampleSize",
		"rate": "RateMbps", "permsg": "PerMessage",
		"chunk": "ChunkRows", "window": "Window", "membudget": "MemBudget",
		"spilldir": "SpillDir", "indir": "InputDir", "procs": "Parallelism",
		"stragglers": "StragglerFactor", "straggler-rank": "StragglerRank",
		"deadline": "StageDeadline", "max-attempts": "MaxAttempts",
	}
	fs, _ := register()
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		// A value of the flag's type that is not its default.
		value := "7"
		switch f.Value.(flag.Getter).Get().(type) {
		case bool:
			value = "true"
		case string:
			value = "x" + f.Name
		case time.Duration:
			value = "7s"
		}
		baseFS, base := register()
		if err := baseFS.Parse(with[f.Name]); err != nil {
			t.Fatal(err)
		}
		setFS, set := register()
		if err := setFS.Parse(append(with[f.Name], fmt.Sprintf("-%s=%s", f.Name, value))); err != nil {
			t.Fatalf("-%s=%s: %v", f.Name, value, err)
		}
		if got := diffFields(base.ToSpec(), set.ToSpec()); len(got) != 1 || got[0] != field[f.Name] {
			t.Errorf("-%s=%s changed spec fields %v, want exactly [%s]", f.Name, value, got, field[f.Name])
		}
	})
	if n != len(field) {
		t.Fatalf("%d flags registered, %d expected: extend the table", n, len(field))
	}
}

// TestForFixups: what ToSpec adjusts beyond copying the flags.
func TestForFixups(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var j Job
	j.RegisterCommon(fs, 4)
	j.RegisterCoded(fs, 1)
	j.RegisterFaults(fs)
	// A slow-down factor of 1 or below is a healthy cluster: neither
	// straggler field reaches the spec.
	if err := fs.Parse([]string{"-stragglers", "1", "-straggler-rank", "2"}); err != nil {
		t.Fatal(err)
	}
	if s := j.ToSpec(); s.StragglerFactor != 0 || s.StragglerRank != 0 || s.Algorithm != job.AlgTeraSort {
		t.Fatalf("healthy cluster kept straggler knobs: %+v", s)
	}
	if j.StragglerRank != 2 || j.R != 1 {
		t.Fatal("ToSpec modified the flag target")
	}
}

// parseAt parses args on the shared flag surface with the given K and r
// defaults; r 0 leaves -r unregistered.
func parseAt(t *testing.T, k, r int, args ...string) *Job {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	j := &Job{}
	j.RegisterCommon(fs, k)
	if r > 0 {
		j.RegisterCoded(fs, r)
	}
	j.RegisterInDir(fs)
	j.RegisterFaults(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return j
}

// perAlgorithmFor is the flags-to-spec mapping this package had while each
// front door named its algorithm (a terasort command, coordinator -alg,
// sortctl submit -coded): TeraSort specs dropped the coded-only knobs and
// coded specs the input dir. An empty alg was codedmr's, which left the
// algorithm to the mapreduce package: coded at max(r, 1).
func perAlgorithmFor(j *Job, alg job.Algorithm) job.Spec {
	spec := j.Spec
	spec.Algorithm = alg
	if spec.StragglerFactor <= 1 {
		spec.StragglerFactor, spec.StragglerRank = 0, 0
	}
	if alg == job.AlgTeraSort {
		spec.R, spec.Placement = 0, ""
	} else {
		spec.InputDir = ""
	}
	if alg == "" {
		spec.Algorithm, spec.R = job.AlgCoded, max(spec.R, 1)
	}
	return spec
}

// TestToSpecMatchesPerAlgorithmFor: every invocation the docs, the service
// smoke and the worked examples they replaced use yields the same job,
// byte for byte on the wire, as it did when each front door named its
// algorithm. Each case is the old invocation (its binary's K and r
// defaults, the algorithm it passed) beside the new one; baseline cases
// are the -compare baselines, the new flags moved to r = 1 on clique
// placement.
func TestToSpecMatchesPerAlgorithmFor(t *testing.T) {
	// A front door's K default and its r default before and now; r 0
	// leaves -r unregistered.
	type door struct{ k, oldR, newR int }
	var (
		terasort = door{8, 0, 3} // the retired terasort command, now codedterasort -r 1
		sorter   = door{8, 3, 3} // codedterasort
		coord    = door{4, 2, 2} // coordinator
		mr       = door{6, 3, 3} // codedmr
		submit   = door{4, 2, 1} // sortctl submit
	)
	for _, c := range []struct {
		door     door
		alg      job.Algorithm
		old, new string
		baseline bool
	}{
		{terasort, job.AlgTeraSort, "-k 8 -rows 1000000", "-r 1 -k 8 -rows 1000000", false},
		{sorter, job.AlgCoded, "-k 8 -r 3 -rows 1000000", "-k 8 -r 3 -rows 1000000", false},
		{sorter, job.AlgTeraSort, "-k 8 -r 3 -rows 1000000", "-k 8 -r 3 -rows 1000000", true},
		{terasort, job.AlgTeraSort, "-k 8 -indir /tmp/terain -membudget 33554432",
			"-r 1 -k 8 -indir /tmp/terain -membudget 33554432", false},
		{coord, job.AlgCoded, "-k 4 -r 2 -rows 400000", "-k 4 -r 2 -rows 400000", false},
		{coord, job.AlgCoded, "-k 4 -r 2 -rows 80000 -chunk 300", "-k 4 -r 2 -rows 80000 -chunk 300", false},
		{sorter, job.AlgCoded, "-k 64 -r 2 -strategy resolvable -rows 640000",
			"-k 64 -r 2 -strategy resolvable -rows 640000", false},
		{sorter, job.AlgTeraSort, "-k 64 -r 2 -strategy resolvable -rows 640000",
			"-k 64 -r 2 -strategy resolvable -rows 640000", true},
		{sorter, job.AlgCoded, "-k 4 -r 2 -rows 200000 -rate 200 -stragglers 4",
			"-k 4 -r 2 -rows 200000 -rate 200 -stragglers 4", false},
		{terasort, job.AlgTeraSort, "-k 4 -rows 200000 -rate 400 -stragglers 4 -straggler-rank 1",
			"-r 1 -k 4 -rows 200000 -rate 400 -stragglers 4 -straggler-rank 1", false},
		{terasort, job.AlgTeraSort, "-k 8 -rows 200000 -dist zipf -partition sample",
			"-r 1 -k 8 -rows 200000 -dist zipf -partition sample", false},
		{terasort, job.AlgTeraSort, "-k 8 -rows 200000 -dist zipf", "-r 1 -k 8 -rows 200000 -dist zipf", false},
		{sorter, job.AlgCoded, "-k 6 -r 3 -rows 240000 -rate 200", "-k 6 -r 3 -rows 240000 -rate 200", false},
		{sorter, job.AlgTeraSort, "-k 6 -r 3 -rows 240000 -rate 200", "-k 6 -r 3 -rows 240000 -rate 200", true},
		{sorter, job.AlgCoded, "-k 3 -r 2", "-k 3 -r 2", false},
		{mr, "", "-k 6 -r 3 -rows 200000", "-k 6 -r 3 -rows 200000", false},
		{mr, job.AlgTeraSort, "-k 6 -r 3 -rows 200000", "-k 6 -r 3 -rows 200000", true},
		{mr, "", "-k 6 -r 3 -rows 300000", "-k 6 -r 3 -rows 300000", false},
		{mr, job.AlgTeraSort, "-k 6 -r 3 -rows 300000", "-k 6 -r 3 -rows 300000", true},
		{submit, job.AlgCoded, "-k 4 -r 2 -rows 200000", "-k 4 -r 2 -rows 200000", false},
		{submit, job.AlgTeraSort, "-k 3 -rows 30000", "-k 3 -rows 30000", false},
		{submit, job.AlgCoded, "-k 3 -r 2 -rows 30000", "-k 3 -r 2 -rows 30000", false},
		{submit, job.AlgTeraSort, "-k 3 -rows 20000 -membudget 65536 -spilldir /tmp/spill",
			"-k 3 -rows 20000 -membudget 65536 -spilldir /tmp/spill", false},
		{submit, job.AlgCoded, "-k 3 -r 2 -rows 20000 -deadline 500ms -max-attempts 2",
			"-k 3 -r 2 -rows 20000 -deadline 500ms -max-attempts 2", false},
		{submit, job.AlgTeraSort, "-rows 100000", "-rows 100000", false},
	} {
		old := parseAt(t, c.door.k, c.door.oldR, strings.Fields(c.old)...)
		j := parseAt(t, c.door.k, c.door.newR, strings.Fields(c.new)...)
		if c.baseline {
			j.R, j.Placement = 1, ""
		}
		want, err := json.Marshal(perAlgorithmFor(old, c.alg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(j.ToSpec())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%q (baseline %v): spec\n%s\nwant (%s, %q)\n%s", c.new, c.baseline, got, c.alg, c.old, want)
		}
	}
}

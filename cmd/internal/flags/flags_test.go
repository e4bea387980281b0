package flags

import (
	"flag"
	"fmt"
	"reflect"
	"testing"
	"time"

	"codedterasort/internal/job"
)

// TestRegisterAndFor: the canonical flag names parse into a valid spec
// for both engines, with the coded-only and terasort-only knobs dropped on
// the other algorithm.
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

	coded := j.For(job.AlgCoded)
	if coded.K != 6 || coded.R != 2 || coded.Rows != 1234 || coded.Seed != 99 ||
		coded.DistName != "skewed" || coded.Placement != "resolvable" || coded.RateMbps != 100 ||
		coded.PerMessage != 5*time.Millisecond || coded.ChunkRows != 500 ||
		coded.Window != 8 || coded.MemBudget != 65536 || coded.SpillDir != "/tmp/x" ||
		coded.Parallelism != 4 {
		t.Fatalf("coded spec: %+v", coded)
	}
	if coded.InputDir != "" {
		t.Fatalf("coded spec kept the terasort-only input dir: %+v", coded)
	}
	if err := coded.Validate(); err != nil {
		t.Fatal(err)
	}

	tera := j.For(job.AlgTeraSort)
	if tera.R != 0 || tera.Placement != "" {
		t.Fatalf("terasort spec kept coded-only knobs: %+v", tera)
	}
	if tera.InputDir != "/tmp/in" {
		t.Fatalf("terasort spec lost the input dir: %+v", tera)
	}
	if err := tera.Validate(); err != nil {
		t.Fatal(err)
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
	// What a flag needs beside itself: -indir survives only on TeraSort
	// specs, and -straggler-rank only next to an effective -stragglers.
	alg := map[string]job.Algorithm{"indir": job.AlgTeraSort}
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
		a := alg[f.Name]
		if a == "" {
			a = job.AlgCoded
		}
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
		if got := diffFields(base.For(a), set.For(a)); len(got) != 1 || got[0] != field[f.Name] {
			t.Errorf("-%s=%s changed spec fields %v, want exactly [%s]", f.Name, value, got, field[f.Name])
		}
	})
	if n != len(field) {
		t.Fatalf("%d flags registered, %d expected: extend the table", n, len(field))
	}
}

// TestForFixups: what For adjusts beyond copying the flags.
func TestForFixups(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var j Job
	j.RegisterCommon(fs, 4)
	j.RegisterFaults(fs)
	// A slow-down factor of 1 or below is a healthy cluster: neither
	// straggler field reaches the spec.
	if err := fs.Parse([]string{"-stragglers", "1", "-straggler-rank", "2"}); err != nil {
		t.Fatal(err)
	}
	if s := j.For(job.AlgTeraSort); s.StragglerFactor != 0 || s.StragglerRank != 0 || s.Algorithm != job.AlgTeraSort {
		t.Fatalf("healthy cluster kept straggler knobs: %+v", s)
	}
	if j.StragglerRank != 2 {
		t.Fatal("For modified the flag target")
	}
}

package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// sections are the titles run prints at -k 16, in order.
var sections = []string{
	"Table I: TeraSort, 12 GB, K=16 workers, 100 Mbps (simulated)",
	"Table II: 12 GB, K=16 workers, 100 Mbps (paper)",
	"Table III: 12 GB, K=20 workers, 100 Mbps (simulated)",
	"Calibration: simulated vs published cells (Tables I-III)",
	"Fig 2: communication load vs computation load r (K=16)",
	"Section III-B analysis of Table I",
	"Impact of r (K=16, 12 GB, 100 Mbps)",
	"Optimal redundancy at K=16",
	"Impact of K (r=",
	"Clique vs resolvable placement (r=",
	"Straggler penalty of one rank",
}

// TestEverySectionAtROne: at -r 1 every section prints. The placement
// curve keeps the clique rows, which at r = 1 are TeraSort, and leaves out
// only the resolvable rows, which have no design at r = 1.
func TestEverySectionAtROne(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 16, 1); err != nil {
		t.Fatalf("run -r 1: %v", err)
	}
	text := out.String()
	at := 0
	for _, s := range sections {
		i := strings.Index(text[at:], s)
		if i < 0 {
			t.Fatalf("section %q missing or out of order in:\n%s", s, text)
		}
		at += i
	}
	placementRows := text[strings.Index(text, "Clique vs resolvable placement"):strings.Index(text, "Straggler penalty")]
	if regexp.MustCompile(`(?m)^ +\d+ +\d+  resolvable`).MatchString(placementRows) || strings.Count(placementRows, "TeraSort") != 6 {
		t.Fatalf("placement curve at r=1 should be six TeraSort rows:\n%s", placementRows)
	}
}

// TestROneRowIsTeraSort: the r = 1 row of the r curve is the TeraSort
// baseline of Table I (961.13 s simulated), at 1.00x.
func TestROneRowIsTeraSort(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 16, 3); err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`(?m)^ +16 +1 +TeraSort .* 961\.13 .* 1\.00x$`)
	if !row.MatchString(out.String()) {
		t.Fatalf("no TeraSort r=1 row at 961.13 s and 1.00x in:\n%s", out.String())
	}
}

func TestRejectsNonPositiveFlags(t *testing.T) {
	for _, kr := range [][2]int{{0, 3}, {16, 0}, {-1, -1}} {
		if err := run(&bytes.Buffer{}, kr[0], kr[1]); err == nil {
			t.Fatalf("-k %d -r %d accepted", kr[0], kr[1])
		}
	}
}

package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	time.Sleep(time.Millisecond)
	if b := c.Now(); b <= a {
		t.Fatalf("clock went backwards: %v then %v", a, b)
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"CodeGen", "Map", "Pack/Encode", "Shuffle", "Unpack/Decode", "Reduce"}
	for s := StageCodeGen; s < NumStages; s++ {
		if s.String() != want[s] {
			t.Fatalf("stage %d = %q, want %q", s, s.String(), want[s])
		}
	}
}

func TestBreakdownTotalMaxAdd(t *testing.T) {
	a := Seconds(1, 2, 3, 4, 5, 6)
	if a.Total() != 21*time.Second {
		t.Fatalf("Total = %v", a.Total())
	}
	b := Seconds(6, 5, 4, 3, 2, 1)
	m := a.Max(b)
	if m != Seconds(6, 5, 4, 4, 5, 6) {
		t.Fatalf("Max = %v", m)
	}
	s := a.Add(b)
	if s.Total() != 42*time.Second {
		t.Fatalf("Add total = %v", s.Total())
	}
}

// TestBreakdownJSONRoundTrip: a breakdown survives the JSON report frame
// that carries coded.Summary.Times from TCP workers, nanosecond for
// nanosecond.
func TestBreakdownJSONRoundTrip(t *testing.T) {
	a := Seconds(0.5, 1.25, 0, 99.75, 3, 0.01)
	a[StageReduce] += time.Nanosecond
	p, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b Breakdown
	if err := json.Unmarshal(p, &b); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("roundtrip: %v != %v", a, b)
	}
}

func TestRenderTableMatchesPaperLayout(t *testing.T) {
	// Reproduce the shape of Table II's first two rows.
	rows := []Row{
		{Label: "TeraSort", Times: Seconds(0, 1.86, 2.35, 945.72, 0.85, 10.47)},
		{Label: "CodedTeraSort r=3", Times: Seconds(6.06, 6.03, 5.79, 412.22, 2.41, 13.05), Speedup: 2.16},
	}
	out := RenderTable("Table II", rows)
	for _, want := range []string{
		"Table II", "CodeGen", "Pack/Encode", "Unpack/Decode",
		"945.72", "961.25", "445.56", "2.16x",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	// TeraSort's CodeGen cell renders as "-".
	lines := strings.Split(out, "\n")
	var teraLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "TeraSort") {
			teraLine = l
		}
	}
	if !strings.Contains(teraLine, "-") {
		t.Fatalf("TeraSort row should show '-' for CodeGen: %q", teraLine)
	}
}

func TestRenderTableEmptySpeedup(t *testing.T) {
	out := RenderTable("", []Row{{Label: "X", Times: Seconds(0, 1, 1, 1, 1, 1)}})
	if strings.Contains(out, "x\n") && strings.Contains(out, "0.00x") {
		t.Fatalf("zero speedup should be hidden:\n%s", out)
	}
}

func TestSecondsHelper(t *testing.T) {
	b := Seconds(1, 2, 3, 4, 5, 6)
	if b[StageCodeGen] != time.Second || b[StageReduce] != 6*time.Second {
		t.Fatalf("Seconds mapping wrong: %v", b)
	}
}

package transport

import "testing"

// TestCreditGate: the gate blocks the window at its bound, one await per
// over-window chunk, and drains the tail.
func TestCreditGate(t *testing.T) {
	awaits := 0
	g := CreditGate{Window: 2, Await: func() error { awaits++; return nil }}
	for i := 0; i < 5; i++ {
		if err := g.Reserve(); err != nil {
			t.Fatal(err)
		}
		g.Sent()
	}
	if awaits != 3 { // chunks 3,4,5 each waited for one credit
		t.Fatalf("awaits=%d during sends, want 3", awaits)
	}
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}
	if awaits != 5 {
		t.Fatalf("awaits=%d after drain, want 5", awaits)
	}
	// Unwindowed gate never awaits.
	free := CreditGate{Await: func() error { t.Fatal("await on unwindowed gate"); return nil }}
	_ = free.Reserve()
	free.Sent()
	if err := free.Drain(); err != nil {
		t.Fatal(err)
	}
}

package inbox

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"weak"

	"codedterasort/internal/transport"
)

func TestPutTakeFIFO(t *testing.T) {
	b := New()
	for i := 0; i < 5; i++ {
		if err := b.Put(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		p, err := b.Take(1)
		if err != nil || p[0] != byte(i) {
			t.Fatalf("i=%d: %v %v", i, p, err)
		}
	}
}

func TestTagIsolation(t *testing.T) {
	b := New()
	if err := b.Put(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	p, err := b.Take(1)
	if err != nil || string(p) != "one" {
		t.Fatalf("tag 1: %q %v", p, err)
	}
	p, err = b.Take(2)
	if err != nil || string(p) != "two" {
		t.Fatalf("tag 2: %q %v", p, err)
	}
}

func TestTakeBlocksUntilPut(t *testing.T) {
	b := New()
	got := make(chan []byte)
	go func() {
		p, err := b.Take(7)
		if err != nil {
			t.Error(err)
		}
		got <- p
	}()
	if err := b.Put(7, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if p := <-got; string(p) != "late" {
		t.Fatalf("got %q", p)
	}
}

func TestCloseUnblocksAndRejects(t *testing.T) {
	b := New()
	errc := make(chan error, 1)
	go func() {
		_, err := b.Take(1)
		errc <- err
	}()
	b.Close()
	if err := <-errc; !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Take after close: %v", err)
	}
	if err := b.Put(1, nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	b := New()
	const producers, each = 4, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Put(transport.Tag(p), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	var cg sync.WaitGroup
	for p := 0; p < producers; p++ {
		cg.Add(1)
		go func(p int) {
			defer cg.Done()
			for i := 0; i < each; i++ {
				got, err := b.Take(transport.Tag(p))
				if err != nil || got[0] != byte(i) {
					t.Errorf("tag %d i %d: %v %v", p, i, got, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	cg.Wait()
}

// TestTakeLetsGoOfPayload: once taken, a payload is the caller's alone —
// the box keeps no reference to it in its queue's spare room, so it is
// garbage as soon as the caller drops it.
func TestTakeLetsGoOfPayload(t *testing.T) {
	b := New()
	var refs []weak.Pointer[byte]
	for i := range 3 {
		p := make([]byte, 1<<16)
		refs = append(refs, weak.Make(&p[0]))
		if err := b.Put(transport.Tag(i%2), p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range []transport.Tag{1, 0, 0} {
		if _, err := b.Take(tag); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	for i, ref := range refs {
		if ref.Value() != nil {
			t.Errorf("payload %d still held after it was taken", i)
		}
	}
	runtime.KeepAlive(b)
}

// Package inbox provides the tag-matched message queue shared by the
// in-memory and TCP transports: an unbounded mailbox per sender where
// receives block for the first message with an exact tag match, preserving
// FIFO order within a tag.
package inbox

import (
	"slices"
	"sync"

	"codedterasort/internal/transport"
)

type message struct {
	tag     transport.Tag
	payload []byte
}

// Box is an unbounded mailbox for messages from a single sender. The zero
// value is not ready; use New.
type Box struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	closed bool
}

// New returns an empty, open mailbox.
func New() *Box {
	b := &Box{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Put enqueues a payload under tag. The payload is stored as given (the
// caller transfers ownership). It returns transport.ErrClosed after Close.
func (b *Box) Put(tag transport.Tag, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return transport.ErrClosed
	}
	b.queue = append(b.queue, message{tag: tag, payload: payload})
	b.cond.Broadcast()
	return nil
}

// Take blocks until a message with the tag is available and removes it.
// It returns transport.ErrClosed once the box is closed and drained of
// matching messages.
func (b *Box) Take(tag transport.Tag) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.queue {
			if m.tag == tag {
				// Delete zeroes the vacated slot, which would otherwise
				// keep the payload alive once the caller lets it go.
				b.queue = slices.Delete(b.queue, i, i+1)
				return m.payload, nil
			}
		}
		if b.closed {
			return nil, transport.ErrClosed
		}
		b.cond.Wait()
	}
}

// Close marks the box closed and wakes all blocked Takes.
func (b *Box) Close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"autoresched/internal/vclock"
)

// message is one delivered payload, matched by (communicator context,
// source rank, tag). raw marks a []byte payload moved without gob framing;
// parts (non-nil) marks a multi-part raw [][]byte payload — the page-batch
// fast path — received only into a *[][]byte.
type message struct {
	ctx   string
	src   int
	tag   int
	data  []byte
	parts [][]byte
	raw   bool
}

// msgPool recycles message envelopes between Send and Recv: on the paged
// migration path every page batch costs one envelope, and at 10k-host
// scale the envelopes dominated the send-side garbage. Payload slices are
// never pooled — they belong to the application under the zero-copy
// contract; only the struct is reused, with its fields zeroed on return.
var msgPool = sync.Pool{New: func() any { return new(message) }}

// getMessage returns a zeroed envelope from the pool.
func getMessage() *message {
	m, _ := msgPool.Get().(*message)
	return m
}

// putMessage zeroes and recycles an envelope. Callers must have handed
// the payload slices off first (decodeMessage aliases them to the
// receiver); dropping the struct's references here is what keeps pooled
// envelopes from pinning page batches.
func putMessage(m *message) {
	*m = message{}
	msgPool.Put(m)
}

// endpoint is a process's mailbox. Sends enqueue eagerly (buffered,
// non-blocking once transport time has been charged); receives match by
// context, source and tag, with wildcard support, in arrival order.
type endpoint struct {
	host string

	mu     sync.Mutex
	cond   *vclock.Cond
	queue  []*message
	closed error // once closed, what receives return
}

func newEndpoint(clock vclock.Clock, host string) *endpoint {
	ep := &endpoint{host: host}
	ep.cond = vclock.NewCond(clock, &ep.mu)
	return ep
}

func (ep *endpoint) deliver(m *message) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed != nil {
		return ErrProcExited
	}
	// In the send/recv steady state match removes in place, so the queue
	// retains its capacity and this append stops growing.
	ep.queue = append(ep.queue, m) //lint:allow hotalloc queue capacity is retained across the send/recv steady state
	ep.cond.Broadcast()
	return nil
}

// match removes and returns the first message matching (ctx, src, tag),
// blocking until one arrives. src/tag may be AnySource/AnyTag.
func (ep *endpoint) match(ctx string, src, tag int) (*message, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		for i, m := range ep.queue {
			if m.matches(ctx, src, tag) {
				ep.queue = append(ep.queue[:i], ep.queue[i+1:]...)
				return m, nil
			}
		}
		if ep.closed != nil {
			return nil, ep.closed
		}
		ep.cond.Wait()
	}
}

// peekNow returns the first matching message without removing or blocking.
func (ep *endpoint) peekNow(ctx string, src, tag int) (*message, bool, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for _, m := range ep.queue {
		if m.matches(ctx, src, tag) {
			return m, true, nil
		}
	}
	if ep.closed != nil {
		return nil, false, ep.closed
	}
	return nil, false, nil
}

// peek returns the first matching message without removing it, blocking
// until one arrives.
func (ep *endpoint) peek(ctx string, src, tag int) (*message, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		for _, m := range ep.queue {
			if m.matches(ctx, src, tag) {
				return m, nil
			}
		}
		if ep.closed != nil {
			return nil, ep.closed
		}
		ep.cond.Wait()
	}
}

func (m *message) matches(ctx string, src, tag int) bool {
	if m.ctx != ctx {
		return false
	}
	if src != AnySource && m.src != src {
		return false
	}
	if tag != AnyTag && m.tag != tag {
		return false
	}
	return true
}

// close closes the mailbox, receives returning why from then on; a closed
// mailbox keeps its first reason.
func (ep *endpoint) close(why error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed == nil {
		ep.closed = why
	}
	ep.cond.Broadcast()
}

// encode serialises one value with gob. Each message carries its own stream
// so arbitrary concrete types work without global registration.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("mpi: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decode deserialises into ptr.
func decode(data []byte, ptr any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(ptr); err != nil {
		return fmt.Errorf("mpi: decode into %T: %w", ptr, err)
	}
	return nil
}

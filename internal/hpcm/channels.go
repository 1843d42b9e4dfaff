package hpcm

import (
	"fmt"
	"sync"

	"autoresched/internal/vclock"
)

// Communication state transfer: the paper's processes keep communicating
// while one of them moves ("the migrating process and initialized process
// can communicate in one communicator"), and HPCM transfers communication
// state so no message is lost. Here the middleware keeps a directory of
// its migration-enabled processes, and each Process owns a mailbox that
// belongs to the process identity — not to an incarnation — so messages
// delivered before, during or after a migration are all received by
// whichever incarnation is alive, in order.

// AnyPeer and AnyTag are wildcards for ReceiveFrom.
const (
	AnyPeer = "*"
	AnyTag  = -1
)

// appMsg is one inter-process message.
type appMsg struct {
	from string
	tag  int
	data []byte
}

// mailbox is the process-owned message queue.
type mailbox struct {
	mu     sync.Mutex
	cond   *vclock.Cond
	queue  []appMsg
	closed bool
}

func newMailbox(clock vclock.Clock) *mailbox {
	m := &mailbox{}
	m.cond = vclock.NewCond(clock, &m.mu)
	return m
}

func (m *mailbox) deliver(msg appMsg) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("hpcm: peer process has finished")
	}
	m.queue = append(m.queue, msg)
	m.cond.Broadcast()
	return nil
}

func (m *mailbox) receive(from string, tag int) (appMsg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.queue {
			if (from == AnyPeer || msg.from == from) && (tag == AnyTag || msg.tag == tag) {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg, nil
			}
		}
		if m.closed {
			return appMsg{}, fmt.Errorf("hpcm: process finished while receiving")
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// lookup finds a running process by name.
func (m *Middleware) lookup(name string) (*Process, bool) {
	v, ok := m.procs.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Process), true
}

// register adds a process to the directory; the name must be unique among
// live processes.
func (m *Middleware) register(p *Process) error {
	if _, loaded := m.procs.LoadOrStore(p.name, p); loaded {
		return fmt.Errorf("hpcm: a process named %q is already running", p.name)
	}
	return nil
}

func (m *Middleware) deregister(p *Process) {
	m.procs.CompareAndDelete(p.name, p)
}

// SendTo sends v to the named peer process, wherever it currently runs.
// The payload is charged to the transport between the two processes'
// current hosts; delivery is into the peer's process-owned mailbox, so a
// concurrent migration of either side cannot lose the message.
func (c *Context) SendTo(peer string, tag int, v any) error {
	if tag < 0 {
		return fmt.Errorf("hpcm: negative tag %d", tag)
	}
	p := c.proc
	dest, ok := p.mw.lookup(peer)
	if !ok {
		return fmt.Errorf("hpcm: no process named %q", peer)
	}
	data, err := gobEncode(v)
	if err != nil {
		return fmt.Errorf("hpcm: encode for %q: %w", peer, err)
	}
	// Charge the wire between the current hosts. The destination host is
	// re-read at send time: a migrated peer receives at its new home.
	if err := p.mw.universe.Transport().Send(p.Host(), dest.Host(), int64(len(data))); err != nil {
		return fmt.Errorf("hpcm: transport to %q: %w", peer, err)
	}
	return dest.mbox.deliver(appMsg{from: p.name, tag: tag, data: data})
}

// ReceiveFrom blocks until a message from peer (or AnyPeer) with tag (or
// AnyTag) arrives, decodes it into ptr, and returns the sender's name.
// Messages survive the receiver's own migrations: the mailbox belongs to
// the process, not the incarnation.
func (c *Context) ReceiveFrom(peer string, tag int, ptr any) (string, error) {
	msg, err := c.proc.mbox.receive(peer, tag)
	if err != nil {
		return "", err
	}
	if err := gobDecode(msg.data, ptr); err != nil {
		return "", fmt.Errorf("hpcm: decode from %q: %w", msg.from, err)
	}
	return msg.from, nil
}

// pendingBytes sums the queued message payloads: the communication state a
// migration must also move.
func (p *Process) pendingBytes() int64 {
	p.mbox.mu.Lock()
	defer p.mbox.mu.Unlock()
	var n int64
	for _, m := range p.mbox.queue {
		n += int64(len(m.data))
	}
	return n
}

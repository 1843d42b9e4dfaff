package mpi

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"autoresched/internal/vclock"
)

// group is a set of processes that can address one another by rank.
type group struct {
	ctx   string
	hosts []string
	eps   []*endpoint

	// parentInterCtx carries the spawn intercommunicator context from
	// launch back to the spawning process.
	parentInterCtx string
}

// Comm is a communicator handle. Each rank holds its own handle; handles
// share the underlying group. An intercommunicator additionally references
// a remote group (MPI-2 dynamic process management produces these).
type Comm struct {
	u      *Universe
	group  *group
	remote *group // nil for an intracommunicator
	ctx    string // message context; empty means group.ctx (intracomm)
	rank   int
	self   *endpoint

	collMu  sync.Mutex
	collSeq int
}

// Status describes a received or probed message.
type Status struct {
	Tag int
}

// context returns the matching context for this communicator's messages.
func (c *Comm) context() string {
	if c.ctx != "" {
		return c.ctx
	}
	return c.group.ctx
}

// Rank returns the caller's rank in the local group.
func (c *Comm) Rank() int { return c.rank }

// Size returns the local group size.
func (c *Comm) Size() int { return len(c.group.eps) }

// Host returns the host name a rank runs on. For an intercommunicator the
// rank indexes the remote group, matching where sends go.
func (c *Comm) Host(rank int) (string, error) {
	g := c.destGroup()
	if rank < 0 || rank >= len(g.hosts) {
		return "", fmt.Errorf("%w: %d of %d", ErrBadRank, rank, len(g.hosts))
	}
	return g.hosts[rank], nil
}

// destGroup is where sends are addressed: the remote group for
// intercommunicators, the local group otherwise.
func (c *Comm) destGroup() *group {
	if c.remote != nil {
		return c.remote
	}
	return c.group
}

// KillRemote kills the processes across an intercommunicator: their
// blocked and future receives return ErrKilledByPeer. No message moves, so
// the transport charges nothing. On an intracommunicator it does nothing.
func (c *Comm) KillRemote() {
	if c.remote == nil {
		return
	}
	for _, ep := range c.remote.eps {
		ep.close(ErrKilledByPeer)
	}
}

// Send sends v to dest with a non-negative tag, blocking until the payload
// has been accepted (eager buffering: transport time is charged, then the
// message is queued at the receiver).
func (c *Comm) Send(v any, dest, tag int) error {
	if tag < 0 {
		return fmt.Errorf("%w: %d", ErrBadTag, tag)
	}
	return c.send(v, dest, tag)
}

func (c *Comm) send(v any, dest, tag int) error {
	g := c.destGroup()
	if dest < 0 || dest >= len(g.eps) {
		return fmt.Errorf("%w: dest %d of %d", ErrBadRank, dest, len(g.eps))
	}
	// []byte payloads move without serialisation or copying (the zero-copy
	// contract: the sender must not mutate the slice after Send). Large
	// memory images — migration state — depend on this staying cheap.
	var data []byte
	raw := false
	if b, ok := v.([]byte); ok {
		data, raw = b, true
	} else {
		var err error
		if data, err = encode(v); err != nil {
			return err
		}
	}
	dst := g.eps[dest]
	if err := c.u.transport.Send(c.self.host, dst.host, int64(len(data))); err != nil {
		return fmt.Errorf("mpi: transport %s->%s: %w", c.self.host, dst.host, err)
	}
	m := getMessage()
	m.ctx, m.src, m.tag, m.data, m.raw = c.context(), c.rank, tag, data, raw
	return dst.deliver(m)
}

// emptyParts marks the multi-part path for a nil fragment slice without
// allocating per send. Receivers may only append to it through a fresh
// backing array (len == cap == 0), so sharing one instance is safe.
var emptyParts = [][]byte{}

// SendParts sends a multi-part raw payload — a slice of byte fragments
// that stay separate end to end, received only into a *[][]byte. Transport
// time is charged once for the summed size, and no fragment is copied or
// re-encoded (the zero-copy contract of Send's []byte fast path, extended
// to page batches: the sender must not mutate any fragment after SendParts).
//
//hot:path
func (c *Comm) SendParts(parts [][]byte, dest, tag int) error {
	if tag < 0 {
		return fmt.Errorf("%w: %d", ErrBadTag, tag)
	}
	g := c.destGroup()
	if dest < 0 || dest >= len(g.eps) {
		return fmt.Errorf("%w: dest %d of %d", ErrBadRank, dest, len(g.eps))
	}
	var total int64
	for _, p := range parts {
		total += int64(len(p))
	}
	dst := g.eps[dest]
	if err := c.u.transport.Send(c.self.host, dst.host, total); err != nil {
		return fmt.Errorf("mpi: transport %s->%s: %w", c.self.host, dst.host, err)
	}
	if parts == nil {
		parts = emptyParts // non-nil marks the multi-part path for decode
	}
	m := getMessage()
	m.ctx, m.src, m.tag, m.parts, m.raw = c.context(), c.rank, tag, parts, true
	return dst.deliver(m)
}

// Recv receives into ptr a message from src (or AnySource) with tag (or
// AnyTag), blocking until one arrives.
func (c *Comm) Recv(ptr any, src, tag int) (Status, error) {
	m, err := c.self.match(c.context(), src, tag)
	if err != nil {
		return Status{}, err
	}
	st := Status{Tag: m.tag}
	if err := decodeMessage(m, ptr); err != nil {
		return Status{}, err
	}
	putMessage(m) // decodeMessage handed the payload off; recycle the envelope
	return st, nil
}

// decodeMessage lands a message in ptr, honouring the raw []byte and
// multi-part [][]byte fast paths.
func decodeMessage(m *message, ptr any) error {
	if m.parts != nil {
		pp, ok := ptr.(*[][]byte)
		if !ok {
			return fmt.Errorf("mpi: multi-part raw message received into %T", ptr)
		}
		*pp = m.parts
		return nil
	}
	if m.raw {
		bp, ok := ptr.(*[]byte)
		if !ok {
			return fmt.Errorf("mpi: raw []byte message received into %T", ptr)
		}
		*bp = m.data
		return nil
	}
	return decode(m.data, ptr)
}

// Probe blocks until a matching message is available and describes it
// without receiving it.
func (c *Comm) Probe(src, tag int) (Status, error) {
	m, err := c.self.peek(c.context(), src, tag)
	if err != nil {
		return Status{}, err
	}
	return Status{Tag: m.tag}, nil
}

// Iprobe reports, without blocking, whether a matching message is
// available (MPI_Iprobe).
func (c *Comm) Iprobe(src, tag int) (bool, Status, error) {
	m, ok, err := c.self.peekNow(c.context(), src, tag)
	if err != nil || !ok {
		return false, Status{}, err
	}
	return true, Status{Tag: m.tag}, nil
}

// Request is a handle for a non-blocking operation.
type Request struct {
	clock  vclock.Clock
	done   chan struct{}
	status Status
	err    error
}

// Wait blocks until the operation completes and returns its status.
func (r *Request) Wait() (Status, error) {
	vclock.Await(r.clock, r.done)
	return r.status, r.err
}

// Isend starts a non-blocking send.
func (c *Comm) Isend(v any, dest, tag int) *Request {
	r := &Request{clock: c.u.clock, done: make(chan struct{})}
	vclock.Go(c.u.clock, func() {
		defer close(r.done)
		r.err = c.Send(v, dest, tag)
	})
	return r
}

// SendRecv performs a combined send and receive, safe against the
// head-to-head exchange deadlock.
func (c *Comm) SendRecv(sendV any, dest, sendTag int, recvPtr any, src, recvTag int) (Status, error) {
	sr := c.Isend(sendV, dest, sendTag)
	st, err := c.Recv(recvPtr, src, recvTag)
	if err != nil {
		return st, err
	}
	if _, serr := sr.Wait(); serr != nil {
		return st, serr
	}
	return st, nil
}

// collTagBase offsets internal tags so they can never collide with the
// AnyTag/AnySource wildcards (-1).
const collTagBase = 1000

// nextCollTag reserves a fresh internal (negative) tag for one collective
// operation. All ranks call collectives in the same order on a
// communicator (an MPI requirement), so per-rank counters agree.
func (c *Comm) nextCollTag() int {
	c.collMu.Lock()
	defer c.collMu.Unlock()
	c.collSeq++
	return -(c.collSeq + collTagBase)
}

// CreateGroup returns a sub-communicator containing exactly the given
// ranks of c, ordered as listed (position in ranks = new rank) — the MPI-3
// MPI_Comm_create_group: collective only over the listed ranks, so absent
// ranks (retired victims of a shrink, crashed hosts) need not participate.
// Every member must pass identical ranks and tag; the derived context is a
// pure function of both, so members agree without communication. The caller
// must be listed.
func (c *Comm) CreateGroup(ranks []int, tag int) (*Comm, error) {
	if c.remote != nil {
		return nil, fmt.Errorf("mpi: CreateGroup of an intercommunicator")
	}
	sig := make([]string, len(ranks))
	ng := &group{}
	newRank := -1
	seen := make(map[int]bool, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= len(c.group.eps) {
			return nil, fmt.Errorf("%w: %d of %d", ErrBadRank, r, len(c.group.eps))
		}
		if seen[r] {
			return nil, fmt.Errorf("mpi: CreateGroup duplicate rank %d", r)
		}
		seen[r] = true
		sig[i] = strconv.Itoa(r)
		ng.eps = append(ng.eps, c.group.eps[r])
		ng.hosts = append(ng.hosts, c.group.hosts[r])
		if r == c.rank {
			newRank = i
		}
	}
	if newRank < 0 {
		return nil, fmt.Errorf("mpi: caller rank %d not in CreateGroup ranks", c.rank)
	}
	ng.ctx = fmt.Sprintf("%s/group-%d-%s", c.group.ctx, tag, strings.Join(sig, "."))
	return &Comm{u: c.u, group: ng, rank: newRank, self: c.self}, nil
}

package hpcm

import (
	"fmt"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
)

// Context is the view an application body has of the middleware: state
// registration, poll-points, CPU and memory charging, and resume
// information. A fresh Context is passed to Main on every incarnation.
type Context struct {
	proc  *Process
	env   *mpi.Env
	label string
	state *registry
}

// Host returns the host this incarnation runs on.
func (c *Context) Host() string { return c.env.Host }

// Resumed reports whether this incarnation continues a migrated execution.
func (c *Context) Resumed() bool { return c.label != "" }

// Register declares an eager memory-state variable: collected at migration
// and restored before the resumed incarnation starts. ptr points at the
// variable. A *[]float64, *[]int64 or *[]byte moves by reference, unencoded.
// Collection only references the source's array, until the incarnation
// returns ErrMigrated — after an abort before the commit point the array is
// simply still the source's own. The restored slice is the application's
// to mutate and costs no second copy: eager state is copied once before the
// commit, and lazy state, streamed after it, is the array the source gave up.
// Anything else must be gob-serialisable and is encoded and decoded. The
// same holds for RegisterLazy.
func (c *Context) Register(name string, ptr any) error {
	return c.state.register(name, ptr, false)
}

// RegisterLazy declares a bulk memory-state variable: streamed to the
// destination in chunks while the resumed incarnation already executes
// (the restoration/execution overlap of Section 5.2). Call Await before
// touching it on a resumed incarnation.
func (c *Context) RegisterLazy(name string, ptr any) error {
	return c.state.register(name, ptr, true)
}

// RegisterPages declares a paged bulk memory region of size bytes in pages
// of pageBytes (livemig.NewPages) and returns it. It is lazy, like
// RegisterLazy: on a resumed incarnation the region has no memory of its
// own until Await installs the one that arrived, so touching it before
// Await is the caller's error. When the middleware runs with Options.Live
// and this is the process's only paged region, migrations take the
// iterative-precopy live path: pages stream while the application keeps
// computing, and the process freezes only for the residual dirty set. On
// the classic path — and in checkpoints — the region moves as its flat
// image.
func (c *Context) RegisterPages(name string, size, pageBytes int) (*livemig.Pages, error) {
	region := livemig.NewPages
	if c.Resumed() {
		region = livemig.Unloaded
	}
	pages, err := region(size, pageBytes)
	if err != nil {
		return nil, fmt.Errorf("hpcm: RegisterPages %q: %w", name, err)
	}
	if err := c.state.register(name, pages, true); err != nil {
		return nil, err
	}
	return pages, nil
}

// Await blocks until the named lazy state is restored. On fresh
// incarnations it returns immediately.
func (c *Context) Await(name string) error { return c.state.await(name) }

// Compute charges work CPU work-units on the current host, blocking in
// virtual time for however long the host's scheduler takes to deliver them.
// It fails with ErrKilled when the incarnation's host has "crashed".
func (c *Context) Compute(work float64) error {
	if c.proc.killed.Load() {
		return ErrKilled
	}
	c.proc.mu.Lock()
	hp := c.proc.hostProc
	c.proc.mu.Unlock()
	if err := hp.Compute(work); err != nil {
		return err
	}
	if c.proc.killed.Load() {
		return ErrKilled
	}
	return nil
}

// SetMemory updates the incarnation's resident memory accounting. The value
// travels with the process: a destination or restored incarnation attaches
// with it.
func (c *Context) SetMemory(bytes int64) {
	c.proc.mu.Lock()
	hp := c.proc.hostProc
	c.proc.mu.Unlock()
	c.proc.memory.Store(bytes)
	hp.SetMemory(bytes)
}

// PollPoint is a migration point. If no migrate command is pending it
// returns quickly (writing a checkpoint first when one is due); otherwise
// it carries out the migration to the commanded destination and returns
// ErrMigrated, which Main must propagate. A migration that fails before
// its commit point returns a *MigrationFailure, which Main must also
// propagate: the runtime then restores the process from its last
// checkpoint — written right here, before the migration starts — on a
// fresh host.
func (c *Context) PollPoint(label string) error {
	if c.proc.killed.Load() {
		return ErrKilled
	}
	// A pending eviction outranks everything else, including an in-flight
	// live migration (finish() cancels the attempt): checkpoint here and
	// stop, handing the job back to the control plane's queue.
	if c.proc.evictReq.CompareAndSwap(true, false) {
		if c.proc.mw.ckptStore != nil {
			if err := c.checkpointNow(label); err != nil {
				return err
			}
		}
		return ErrPreempted
	}
	// A live attempt in flight resolves here: while precopy rounds are on
	// the wire the application keeps computing; once the rounds reached a
	// terminal decision this poll-point freezes or falls back.
	if handled, err := c.pollLive(label); handled {
		return err
	}
	select {
	case sig := <-c.proc.signal:
		// Safety checkpoint: an aborted migration falls back to state no
		// older than this poll-point, losing zero completed work.
		if c.proc.mw.ckptStore != nil {
			if err := c.checkpointNow(label); err != nil {
				return err
			}
		}
		c.proc.xfer.Add(1)
		defer c.proc.xfer.Done()
		return c.migrate(label, sig, false)
	default:
		return c.maybeCheckpoint(label)
	}
}

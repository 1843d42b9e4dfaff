// Accessors only the tests of package hpcm call.

package hpcm

import (
	"errors"
	"time"

	"autoresched/internal/vclock"
)

// Pending reports how many undelivered messages wait in the process's
// mailbox — the communication state a migration carries along.
func (p *Process) Pending() int {
	p.mbox.mu.Lock()
	defer p.mbox.mu.Unlock()
	return len(p.mbox.queue)
}

// requestCheckpoint asks the process to write a checkpoint at its next
// poll-point (it keeps running afterwards). Requires a store configured on
// the middleware.
func (p *Process) requestCheckpoint() error {
	if p.mw.ckptStore == nil {
		return errors.New("hpcm: no checkpoint store configured")
	}
	p.ckptReq.Store(true)
	return nil
}

// Name returns the application name.
func (c *Context) Name() string { return c.proc.name }

// Clock returns the middleware clock.
func (c *Context) Clock() vclock.Clock { return c.proc.mw.clock }

// Sleep blocks the application in virtual time.
func (c *Context) Sleep(d time.Duration) { c.proc.mw.clock.Sleep(d) }

package hpcm

import (
	"fmt"

	"autoresched/internal/livemig"
	"autoresched/internal/vclock"
)

// Live migration: iterative precopy as an optional prefix of the Section 3
// handover. Stop-and-copy freezes the process for its whole memory
// transfer; a live attempt first ships the paged region in rounds over the
// intercommunicator while the source keeps computing — round 1 carries
// every page, rounds 2..N only the pages dirtied since the previous round
// — and freezes the process only for the residual dirty set plus the
// ordinary handover. When the dirty set stops shrinking the attempt falls
// back to stop-and-copy, paying one extra spawn.
//
// The flow is split across poll-points: migrate launches the rounds and
// returns immediately (the application computes through them); pollLive
// resolves the attempt at the first poll-point after the rounds reached a
// terminal decision — freeze and hand over for a converged attempt, a
// cancel plus a fresh stop-and-copy migrate for fallback.

// delta is the attempt's region as a page-delta segment: the pages ids, in
// the eager half whatever the application registered.
func (att *attempt) delta(ids []int, parts [][]byte) segment {
	return segment{
		Name: att.pagesName, Size: att.pages.Len(), Enc: encRaw,
		Pages: &pageDelta{Bytes: att.pages.PageSize(), IDs: ids}, parts: parts,
	}
}

// release tells the destination to discard the partial region and exit,
// and kills it, so that it exits even where the cancel cannot reach it.
// The cancel is best-effort: every caller has already given up on this
// destination.
func (att *attempt) release() {
	_ = (&image{Cancel: true}).sendState(att.inter) //lint:allow discardederr best-effort release of an abandoned destination; the caller's own outcome carries the cause
	att.inter.KillRemote()
}

// startPrecopy runs the attempt's rounds in the background, each an image of
// one delta; a later poll-point resolves the attempt. The blocking sends
// charge the virtual transfer time, which paces the rounds and makes them
// contend with application traffic on the simulated network.
func (c *Context) startPrecopy(att *attempt) {
	p := c.proc
	att.done = make(chan struct{})
	p.mu.Lock()
	p.live = att
	p.mu.Unlock()

	p.xfer.Add(1)
	vclock.Go(p.mw.clock, func() {
		defer p.xfer.Done()
		att.res, att.err = livemig.Precopy(att.pages, att.cancelled.Load, func(round int, ids []int, parts [][]byte) error {
			img := image{Round: round, Segments: []segment{att.delta(ids, parts)}}
			if err := img.sendState(att.inter); err != nil {
				return err
			}
			p.mw.observe(att.event(PhasePrecopy, round, nil))
			return nil
		})
		if att.cancelled.Load() {
			// Stopped between rounds (process finished or was killed): the
			// destination is still waiting for rounds.
			att.release()
		}
		close(att.done)
	})
}

// pollLive resolves an in-flight live attempt. handled=false means no
// attempt exists and the poll-point proceeds normally; handled=true with a
// nil error means rounds are still on the wire and the application should
// keep computing.
func (c *Context) pollLive(label string) (handled bool, err error) {
	p := c.proc
	p.mu.Lock()
	att := p.live
	p.mu.Unlock()
	if att == nil {
		return false, nil
	}
	select {
	case <-att.done:
	default:
		// Precopy rounds still shipping: compute through them. Checkpoint
		// cadence is preserved — a checkpoint written here is the fallback
		// point if the attempt aborts.
		return true, c.maybeCheckpoint(label)
	}
	p.mu.Lock()
	if p.live != att {
		// cancelLive raced us and owns the cleanup.
		p.mu.Unlock()
		return true, nil
	}
	p.live = nil
	p.mu.Unlock()

	p.xfer.Add(1)
	defer p.xfer.Done()

	mw := p.mw
	if att.err != nil {
		att.release()
		return true, mw.abort(att, PhasePrecopy, att.res.Rounds, att.err)
	}
	if att.res.Decision == livemig.Fallback {
		// The dirty set never converged: discard the precopy work and pay
		// the stop-and-copy price — including a second spawn, which is
		// exactly the visible fallback cost the experiments measure.
		att.release()
		mw.observe(att.event(PhaseAborted, att.res.Rounds, fmt.Errorf(
			"hpcm: precopy did not converge after %d rounds: falling back to stop-and-copy", att.res.Rounds)))
		return true, c.migrate(label, att.sig, nil)
	}

	// Converged: the process freezes at this poll-point. The window from
	// here to the destination's resume is the migration's downtime.
	att.rec.Label = label
	att.rec.FreezeAt = mw.clock.Now()
	att.rec.PrecopyRounds = att.res.Rounds
	mw.observe(att.event(PhaseFreeze, 0, nil))

	if err := c.collectState(att); err != nil {
		return true, mw.abort(att, PhaseFreeze, 0, err)
	}
	return true, c.handover(att, PhaseFreeze)
}

// cancelLive stops an in-flight live attempt, if any: the rounds quit at the
// next round boundary and the destination discards the partial region.
// Called when the process finishes (or is killed) with an attempt pending.
func (p *Process) cancelLive() {
	p.mu.Lock()
	att := p.live
	p.live = nil
	p.mu.Unlock()
	if att == nil {
		return
	}
	att.cancelled.Store(true)
	select {
	case <-att.done:
		// The rounds already finished and nobody will poll the result: tell
		// the destination ourselves.
		att.release()
	default:
		// The precopy goroutine observes the flag and sends the cancel.
	}
}

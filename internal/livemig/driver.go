package livemig

import (
	"errors"
	"fmt"
)

// SendFunc ships one round to the destination: the sorted ids of the pages
// in it and their images back to back, as Pages.Snapshot copied them — the
// round's own buffer, which the source never touches again. Round 1 carries
// every page, so its data is a whole copy of the region, in Precopy's buf
// when that has the region's length. hpcm binds this to the migration
// intercommunicator; the call blocks for the round's virtual transfer time,
// which is what paces precopy rounds on the virtual clock and makes rounds
// contend with application traffic on the simulated network. hpcm raises
// its per-round migration event once the round is on the wire, which is
// where fault injection can crash a host mid-precopy.
type SendFunc func(round int, ids []int, data []byte) error

// ErrStopped reports a precopy iteration cancelled between rounds (the
// process finished or was killed while the rounds were still copying).
var ErrStopped = errors.New("livemig: precopy stopped")

// Result summarises a finished precopy iteration. The destination holds
// every page as of ShippedGen; pages dirtied after it are the freeze
// residual.
type Result struct {
	// Decision is Freeze or Fallback — never Continue.
	Decision   Decision
	ShippedGen uint64
	Rounds     int
	// PagesSent counts pages shipped across all rounds; PagesResent is the
	// rounds 2..N share of it (the precopy overhead versus stop-and-copy).
	PagesSent   int
	PagesResent int
}

// Precopy runs the iterative precopy rounds of one migration attempt over
// pages — round 1 carries every page — until the convergence rule yields a
// terminal decision. It owns no goroutine: the caller runs it wherever it
// wants concurrency, while the application keeps computing, and stop is
// asked before every round. It returns ErrStopped when stop says so, or the
// send error when a round fails on the wire; either way the attempt is over
// and the caller decides between abort and fallback. Round 1 copies the
// region into buf, which the caller hands over, if it fits (Pages.Snapshot).
func Precopy(pages *Pages, buf []byte, stop func() bool, send SendFunc) (Result, error) {
	var res Result
	total := pages.NumPages()
	for round := 1; ; round++ {
		if stop() {
			return res, ErrStopped
		}
		ids, data, gen := pages.Snapshot(res.ShippedGen, buf)
		if err := send(round, ids, data); err != nil {
			return res, fmt.Errorf("livemig: precopy round %d: %w", round, err)
		}
		res.ShippedGen = gen
		res.Rounds = round
		res.PagesSent += len(ids)
		if round > 1 {
			res.PagesResent += len(ids)
		}
		dirty := pages.dirtyCount(gen)
		if dec := Decide(round, dirty, len(ids), total); dec != Continue {
			res.Decision = dec
			return res, nil
		}
	}
}

package livemig

import "fmt"

// Config selects live migration: a nil *Config keeps stop-and-copy, a
// non-nil one takes the iterative precopy path. The precopy loop's
// thresholds are constants.
type Config struct{}

// The convergence rule's thresholds.
const (
	// maxRounds caps the precopy rounds (round 1, the full copy, included);
	// reaching the cap forces a terminal decision.
	maxRounds = 8
	// convergenceRatio is the shrink factor a round must beat to keep
	// iterating: the precopy continues only while
	// dirty < convergenceRatio × previous-round-dirty.
	convergenceRatio = 0.7
	// freezeFraction is the residual dirty fraction small enough to freeze
	// immediately: dirty ≤ freezeFraction × total-pages stops the iteration
	// and ships the residual in the freeze window.
	freezeFraction = 0.05
	// fallbackFraction bounds the freeze window when the iteration gives up
	// without converging: a residual above fallbackFraction × total-pages
	// abandons precopy for the classic stop-and-copy path.
	fallbackFraction = 0.5
)

// Decision is Precopy's verdict after a round.
type Decision int

const (
	// Continue: the dirty set is still shrinking; run another round.
	Continue Decision = iota
	// Freeze: the residual is small (or shrinking stopped with a modest
	// residual); stop the process at its next poll-point and ship the delta.
	Freeze
	// Fallback: precopy cannot converge — the workload dirties pages faster
	// than the link drains them; abandon the attempt and run the classic
	// stop-and-copy migration.
	Fallback
)

func (d Decision) String() string {
	switch d {
	case Continue:
		return "continue"
	case Freeze:
		return "freeze"
	case Fallback:
		return "fallback"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Decide applies the convergence rule after round (1-based) shipped its
// pages: dirty is the page count dirtied while that round was on the wire,
// prevDirty is the count the round shipped, total the region's page count.
// The rule is pure arithmetic — the live round loop and the analytic model
// share it, so the model's crossover predictions match the engine.
func Decide(round, dirty, prevDirty, total int) Decision {
	if total <= 0 {
		return Freeze
	}
	if float64(dirty) <= freezeFraction*float64(total) {
		return Freeze
	}
	stalled := round > 1 && float64(dirty) >= convergenceRatio*float64(prevDirty)
	if round >= maxRounds || stalled {
		if float64(dirty) > fallbackFraction*float64(total) {
			return Fallback
		}
		return Freeze
	}
	return Continue
}

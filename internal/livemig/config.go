package livemig

import "fmt"

// Config tunes the iterative precopy loop. The zero value is usable:
// every field has a documented default applied by withDefaults.
type Config struct {
	// MaxRounds caps the precopy rounds (round 1, the full copy, included);
	// zero selects 8. Reaching the cap forces a terminal decision.
	MaxRounds int
	// ConvergenceRatio is the shrink factor a round must beat to keep
	// iterating: the precopy continues only while
	// dirty < ConvergenceRatio × previous-round-dirty. Zero selects 0.7.
	ConvergenceRatio float64
	// FreezeFraction is the residual dirty fraction considered small enough
	// to freeze immediately: dirty ≤ FreezeFraction × total-pages stops the
	// iteration and ships the residual in the freeze window. Zero selects
	// 0.05.
	FreezeFraction float64
	// FallbackFraction bounds the freeze window when the iteration gives up
	// without converging: a residual above FallbackFraction × total-pages
	// abandons precopy for the classic stop-and-copy path. Zero selects 0.5.
	FallbackFraction float64
}

func (c Config) withDefaults() Config {
	if c.MaxRounds <= 0 {
		c.MaxRounds = 8
	}
	if c.ConvergenceRatio <= 0 {
		c.ConvergenceRatio = 0.7
	}
	if c.FreezeFraction <= 0 {
		c.FreezeFraction = 0.05
	}
	if c.FallbackFraction <= 0 {
		c.FallbackFraction = 0.5
	}
	return c
}

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
func (c Config) Decide(round, dirty, prevDirty, total int) Decision {
	c = c.withDefaults()
	if total <= 0 {
		return Freeze
	}
	if float64(dirty) <= c.FreezeFraction*float64(total) {
		return Freeze
	}
	stalled := round > 1 && float64(dirty) >= c.ConvergenceRatio*float64(prevDirty)
	if round >= c.MaxRounds || stalled {
		if float64(dirty) > c.FallbackFraction*float64(total) {
			return Fallback
		}
		return Freeze
	}
	return Continue
}

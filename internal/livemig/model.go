package livemig

import (
	"math"
	"time"
)

// Scenario parameterises one modeled migration for the analytic precopy
// model: a region of TotalPages pages moving over a link of Bandwidth
// bytes/s while the application dirties pages at DirtyPagesPerSec. The
// model shares Decide with the live driver, so its crossover — the
// dirty rate where precopy stops paying and fallback engages — is the
// engine's crossover, computed without running anything.
type Scenario struct {
	TotalPages int
	PageBytes  int
	// Bandwidth is the migration link speed in bytes per second.
	Bandwidth float64
	// SpawnLatency is the dynamic-process-creation cost the stop-and-copy
	// path (and the fallback's second spawn) pays inside its freeze window.
	SpawnLatency time.Duration
	// Handshake is the per-transfer control-message overhead (batch meta,
	// resume status).
	Handshake time.Duration
	// DirtyPagesPerSec is the application's page-dirtying rate. Writes land
	// on uniformly random pages, so the distinct-page count saturates
	// toward TotalPages instead of growing linearly.
	DirtyPagesPerSec float64
}

// Outcome is one modeled migration: what the engine would decide and what
// each path's freeze window (downtime) would be.
type Outcome struct {
	// Mode is "precopy" (the iteration froze with a small residual) or
	// "fallback" (it could not converge and re-ran stop-and-copy).
	Mode   string
	Rounds int
	// PagesSent counts pages shipped over all precopy rounds; PagesResent
	// is the rounds 2..N share.
	PagesSent   int
	PagesResent int
	// Downtime is the modeled freeze window of the chosen path; StopCopy is
	// the stop-and-copy freeze window for the same scenario, the baseline
	// the sweep compares against.
	Downtime time.Duration
	StopCopy time.Duration
	// PrecopySeconds is the time spent copying before the freeze (the
	// application computes throughout it; it is not downtime).
	PrecopySeconds float64
}

// distinctDirty models how many distinct pages a uniform write stream
// touches in t seconds: total·(1 − e^(−rate·t/total)).
func distinctDirty(total int, rate, t float64) int {
	if rate <= 0 || t <= 0 {
		return 0
	}
	n := float64(total) * (1 - math.Exp(-rate*t/float64(total)))
	d := int(math.Round(n))
	if d > total {
		d = total
	}
	return d
}

// Simulate runs the analytic model for one scenario. Pure arithmetic over
// the inputs: two calls with equal arguments return identical outcomes,
// which is what makes the livemig experiment sweep byte-deterministic.
func Simulate(sc Scenario) Outcome {
	secs := func(d time.Duration) float64 { return d.Seconds() }
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	pageSec := float64(sc.PageBytes) / sc.Bandwidth // wire time of one page

	// Stop-and-copy freeze window: spawn the destination, handshake, ship
	// the full region, all while the application is stopped.
	stopCopy := dur(secs(sc.SpawnLatency) + secs(sc.Handshake) + float64(sc.TotalPages)*pageSec)

	out := Outcome{StopCopy: stopCopy}
	dirty := sc.TotalPages // round 1 ships everything
	for round := 1; ; round++ {
		sendSec := secs(sc.Handshake) + float64(dirty)*pageSec
		out.Rounds = round
		out.PagesSent += dirty
		if round > 1 {
			out.PagesResent += dirty
		}
		out.PrecopySeconds += sendSec
		next := distinctDirty(sc.TotalPages, sc.DirtyPagesPerSec, sendSec)
		dec := Decide(round, next, dirty, sc.TotalPages)
		dirty = next
		switch dec {
		case Continue:
		case Freeze:
			// Freeze window: ship the residual and handshake the resume; the
			// destination already exists, so no spawn is paid.
			out.Mode = "precopy"
			out.Downtime = dur(secs(sc.Handshake) + float64(dirty)*pageSec)
			return out
		case Fallback:
			// The attempt is abandoned (one cancel handshake) and the classic
			// stop-and-copy runs from scratch — its full freeze window, spawn
			// included, plus the wasted precopy as extra migration time.
			out.Mode = "fallback"
			out.Downtime = stopCopy + sc.Handshake
			return out
		}
	}
}

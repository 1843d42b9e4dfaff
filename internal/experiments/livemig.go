package experiments

import (
	"fmt"
	"strings"
	"time"

	"autoresched/internal/livemig"
	"autoresched/internal/metrics"
)

// LivemigConfig parameterises the live-migration downtime sweep: the
// analytic precopy model (which shares its convergence rule with the live
// driver) evaluated over a grid of page-dirtying rates and migration link
// speeds. Everything is pure arithmetic — the sweep is byte-deterministic.
type LivemigConfig struct {
	// Metrics, when set, receives the modeled downtime distributions
	// (livemig/model_downtime_seconds, livemig/model_stopcopy_seconds).
	Metrics *metrics.Registry
}

// The sweep's grid: the application page-dirtying rates in pages/s, and a
// 16 MiB migrated region in 4 KiB pages. The engine runs on the livemig
// defaults (the ones the runtime itself uses).
var livemigDirtyRates = []float64{0, 50, 100, 200, 400, 800, 1600, 3200, 6400}

const (
	livemigTotalPages = 4096
	livemigPageBytes  = 4096
)

// LivemigRow is one modeled migration of the sweep.
type LivemigRow struct {
	Bandwidth float64
	DirtyRate float64
	Outcome   livemig.Outcome
}

// RunLivemig evaluates the precopy model over the configured grid. The
// scenario's spawn latency and handshake overhead match the experiment
// cluster's nominal parameters (300 ms dynamic process creation, 2 ms
// control round-trip), so the stop-and-copy baseline here is the same
// quantity a measured stop-and-copy migration reports.
func RunLivemig(cfg LivemigConfig) []LivemigRow {
	// The link speeds swept, in bytes/s: 10, 100 and 1000 Mbps Ethernet.
	bandwidths := []float64{1.25e6, 12.5e6, 125e6}
	rows := make([]LivemigRow, 0, len(bandwidths)*len(livemigDirtyRates))
	for _, bw := range bandwidths {
		for _, rate := range livemigDirtyRates {
			out := livemig.Simulate(livemig.Scenario{
				TotalPages:       livemigTotalPages,
				PageBytes:        livemigPageBytes,
				Bandwidth:        bw,
				SpawnLatency:     300 * time.Millisecond,
				Handshake:        2 * time.Millisecond,
				DirtyPagesPerSec: rate,
			})
			rows = append(rows, LivemigRow{Bandwidth: bw, DirtyRate: rate, Outcome: out})
			if cfg.Metrics != nil {
				cfg.Metrics.Histogram("livemig/model_downtime_seconds").Observe(out.Downtime.Seconds())
				cfg.Metrics.Histogram("livemig/model_stopcopy_seconds").Observe(out.StopCopy.Seconds())
			}
		}
	}
	return rows
}

// RenderLivemig prints the sweep as one table per link speed, with the
// crossover — the first dirty rate where precopy stops converging and the
// engine falls back to stop-and-copy — called out per table. Two calls with
// equal rows produce byte-identical output.
func RenderLivemig(rows []LivemigRow) string {
	var b strings.Builder
	b.WriteString("live migration — modeled downtime, precopy vs stop-and-copy (deterministic)\n")
	var bw float64 = -1
	crossover := func(start int) string {
		for i := start; i < len(rows) && rows[i].Bandwidth == rows[start].Bandwidth; i++ {
			if rows[i].Outcome.Mode == "fallback" {
				return fmt.Sprintf("crossover at %.0f pages/s: precopy stops paying, engine falls back", rows[i].DirtyRate)
			}
		}
		return "no crossover in sweep: precopy converges at every rate"
	}
	for i, r := range rows {
		if r.Bandwidth != bw {
			bw = r.Bandwidth
			fmt.Fprintf(&b, "\nlink %.0f Mbps — %s\n", bw*8/1e6, crossover(i))
			b.WriteString("  dirty pages/s  mode      rounds  sent    resent  precopy_s  downtime    stop-and-copy\n")
		}
		o := r.Outcome
		fmt.Fprintf(&b, "  %-13.0f  %-8s  %-6d  %-6d  %-6d  %-9.3f  %-10s  %s\n",
			r.DirtyRate, o.Mode, o.Rounds, o.PagesSent, o.PagesResent,
			o.PrecopySeconds, o.Downtime.Round(100*time.Microsecond), o.StopCopy.Round(100*time.Microsecond))
	}
	return b.String()
}

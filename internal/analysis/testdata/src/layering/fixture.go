// Package sim impersonates internal/sim for the layering fixture: one
// import from a lower row, one from its own row and one from a higher row.
package sim

import (
	"autoresched/internal/core"    // want `\[layering\] internal/sim \(row 1\) imports internal/core \(row 5\)`
	"autoresched/internal/metrics" // want `\[layering\] internal/sim \(row 1\) imports internal/metrics \(row 1\)`
	"autoresched/internal/vclock"
)

var (
	_ = core.NewCluster
	_ = metrics.NewRegistry
	_ = vclock.Epoch
)

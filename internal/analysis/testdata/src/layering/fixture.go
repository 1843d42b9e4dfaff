// Package simnet impersonates internal/simnet for the layering fixture: one
// import from a lower row, one from its own row and one from a higher row.
package simnet

import (
	"autoresched/internal/core"    // want `\[layering\] internal/simnet \(row 1\) imports internal/core \(row 5\)`
	"autoresched/internal/simnode" // want `\[layering\] internal/simnet \(row 1\) imports internal/simnode \(row 1\)`
	"autoresched/internal/vclock"
)

var (
	_ = core.NewCluster
	_ = simnode.NewHost
	_ = vclock.Epoch
)

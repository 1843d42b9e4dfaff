// Fixture loaded as autoresched/cmd/repro: the experiment driver runs
// simulations only, so unlike the daemon it is not allowlisted, and a
// wall-clock read or a global-rand draw here is reported.
package main

import (
	"math/rand"
	"time"
)

func stamp() time.Time {
	return time.Now() // want `\[determinism\] time\.Now reads the wall clock`
}

func draw() int {
	return rand.Intn(6) // want `\[determinism\] rand\.Intn draws from the global wall-seeded source`
}

func main() {
	_ = stamp()
	_ = draw()
}

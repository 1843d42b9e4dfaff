// Fixture loaded as autoresched/cmd/reschedd: the daemon runs against real
// hosts and is allowlisted for wall-clock use, so nothing here may be
// reported.
package main

import (
	"math/rand"
	"time"
)

func now() time.Time { return time.Now() }

func draw() int { return rand.Intn(6) }

func main() {
	_ = now()
	_ = draw()
}

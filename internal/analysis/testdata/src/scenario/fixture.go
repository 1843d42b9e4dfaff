// Fixture loaded as autoresched/internal/scenario: the acceptance case for
// the scenario-diversity engine. The whole package's value is that a fleet
// report is a pure function of its seed — generator draws come from a
// seeded *rand.Rand and the runner's timestamps from its tick count — so
// a wall-clock read or a global-rand draw slipped into the package breaks
// the golden regression and must be reported.
package scenario

import (
	"math/rand"
	"time"
)

// DrawGang picks a gang size off the process-global, wall-seeded source:
// two fleet runs with the same seed would generate different scenarios,
// and every golden would flap.
func DrawGang() int {
	return 1 + rand.Intn(8) // want `\[determinism\] rand\.Intn draws from the global wall-seeded source`
}

// StampRun records a run timestamp off the wall clock instead of the
// runner's tick: rundir contents would differ byte-for-byte on
// every re-run.
func StampRun() time.Time {
	return time.Now() // want `\[determinism\] time\.Now reads the wall clock`
}

// SeededFleet is the package's actual idiom: an explicitly seeded source,
// deterministic per seed, which the determinism check accepts.
func SeededFleet(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(8)
	}
	return out
}

// Fixture loaded as autoresched/internal/jobs: the acceptance case for the
// multi-job control plane. The queue's lifecycle timestamps and the
// policies' admission order must come from the injected sim clock and the
// submission sequence — a wall-clock read or a global-rand tiebreak
// slipped into the package must be reported.
package jobs

import (
	"math/rand"
	"time"
)

// SubmittedAt stamps a submission off the wall clock instead of the
// queue's injected clock — the exact regression the determinism check
// exists to catch in this package.
func SubmittedAt() time.Time {
	return time.Now() // want `\[determinism\] time\.Now reads the wall clock`
}

// TieBreak orders two equal-priority jobs off the process-global,
// wall-seeded source: the admission order would differ run to run.
func TieBreak() bool {
	return rand.Intn(2) == 0 // want `\[determinism\] rand\.Intn draws from the global wall-seeded source`
}

// SeededShuffle is fine: an explicitly seeded source is deterministic, the
// multijob experiment's idiom.
func SeededShuffle(seed int64, names []string) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
}

// WaitedFor is fine: durations handed in from the sim clock are pure
// values.
func WaitedFor(started, submitted time.Time) time.Duration {
	return started.Sub(submitted)
}

// Accessors only the tests of package monitor call.

package monitor

import "autoresched/internal/rules"

// State returns the state the last successful cycle decided, Free before
// the first.
func (m *Monitor) State() rules.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.history) == 0 {
		return rules.Free
	}
	return m.history[(m.cycles-1)%len(m.history)].State
}

// historyCopy returns the monitoring information database (oldest first).
func (m *Monitor) historyCopy() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := m.cycles % max(len(m.history), 1)
	return append(append([]Sample(nil), m.history[oldest:]...), m.history[:oldest]...)
}

// cycleCount reports how many gather cycles have completed.
func (m *Monitor) cycleCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cycles
}

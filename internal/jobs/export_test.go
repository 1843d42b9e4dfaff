// Accessors only the tests of package jobs call.

package jobs

// Placement returns the hosts the job currently occupies (empty unless
// Reserving/Running/Preempting).
func (j *Job) Placement() []string {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return append([]string(nil), j.placement...)
}

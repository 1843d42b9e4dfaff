// Accessors only the tests of package registry call.

package registry

import "autoresched/internal/rules"

// stateOf returns the registry's view of a host's state (Unavailable when
// the lease has expired or the host is unknown).
func (r *Registry) stateOf(host string) rules.State {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hosts[host]
	if !ok || !r.aliveLocked(e, r.clock.Now()) {
		return rules.Unavailable
	}
	return e.info.State
}

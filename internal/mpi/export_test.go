// Accessors only the tests of package mpi call.

package mpi

// remoteSize returns the remote group size of an intercommunicator, or 0.
func (c *Comm) remoteSize() int {
	if c.remote == nil {
		return 0
	}
	return len(c.remote.eps)
}

// isInter reports whether this is an intercommunicator.
func (c *Comm) isInter() bool { return c.remote != nil }

// Run launches one process per host name, forming a world communicator of
// size len(hosts), and waits for all of them. The returned slice holds each
// rank's error (nil for success), indexed by rank.
func (u *Universe) Run(hosts []string, main Main) []error {
	_, errs := u.launch(hosts, nil, main)
	return errs.wait()
}

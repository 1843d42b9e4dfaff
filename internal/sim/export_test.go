// Accessors only the tests of package sim call.

package sim

// activeFlows reports the number of in-flight transfers.
func (n *Network) activeFlows() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.flows)
}

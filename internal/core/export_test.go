// Accessors only the tests of package core call.

package core

import "sort"

// Hosts returns all host names, sorted.
func (c *Cluster) Hosts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.hosts))
	for name := range c.hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Accessors only the tests of package metrics call.

package metrics

// sumSeconds returns the sum of all observed samples in seconds.
func (h *Histogram) sumSeconds() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

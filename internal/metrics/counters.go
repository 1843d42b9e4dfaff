package metrics

import "sync/atomic"

// Counter is a monotonic count, safe for concurrent use. All methods are
// nil-receiver safe: a component resolves its counters once from an
// optional Registry and counts unconditionally, so a disabled counter
// costs one compare and a live one an atomic add. Counter names are
// declared beside the code that increments them (proto.CtrRetries,
// core.CtrMigrCommitted, ...).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

package commander

import (
	"time"

	"autoresched/internal/events"
	"autoresched/internal/metrics"
	"autoresched/internal/vclock"
)

// Option configures a commander built with NewCommander, the functional-
// options construction style shared with internal/proto and
// internal/registry.
type Option func(*options)

type options struct {
	cfg Config
}

// NewCommander creates a commander for host from functional options. It is
// the only constructor.
func NewCommander(host string, opts ...Option) *Commander {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return newFromConfig(host, "", o.cfg)
}

// WithClock sets the clock driving the dedup window.
func WithClock(clock vclock.Clock) Option { return func(o *options) { o.cfg.Clock = clock } }

// WithDedupWindow suppresses redelivered identical orders inside the window.
func WithDedupWindow(d time.Duration) Option {
	return func(o *options) { o.cfg.DedupWindow = d }
}

// WithMetrics sets the metrics registry receiving the commander's counters.
func WithMetrics(m *metrics.Registry) Option {
	return func(o *options) { o.cfg.Metrics = m }
}

// WithEvents sets the sink receiving the commander's "order" events.
func WithEvents(s events.Sink) Option {
	return func(o *options) { o.cfg.Events = s }
}

package commander

import (
	"time"

	"autoresched/internal/events"
	"autoresched/internal/metrics"
	"autoresched/internal/vclock"
)

// Option configures a commander built with NewCommander, the functional-
// options construction style shared with internal/proto and
// internal/registry. Each option sets one config field; see config for
// semantics and defaults.
type Option func(*config)

// NewCommander creates a commander for host from functional options. It is
// the only constructor.
func NewCommander(host string, opts ...Option) *Commander {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.clock == nil {
		cfg.clock = vclock.Real()
	}
	return &Commander{
		host:    host,
		cfg:     cfg,
		procs:   make(map[int]Target),
		lastCmd: make(map[int]lastOrder),
	}
}

// WithClock sets the clock driving the dedup window.
func WithClock(clock vclock.Clock) Option { return func(c *config) { c.clock = clock } }

// WithDedupWindow suppresses redelivered identical orders inside the window.
func WithDedupWindow(d time.Duration) Option {
	return func(c *config) { c.dedupWindow = d }
}

// WithMetrics sets the metrics registry receiving the commander's counters.
func WithMetrics(m *metrics.Registry) Option {
	return func(c *config) { c.metrics = m }
}

// WithEvents sets the sink receiving the commander's "order" events.
func WithEvents(s events.Sink) Option {
	return func(c *config) { c.events = s }
}

package registry

import (
	"time"

	"autoresched/internal/events"
	"autoresched/internal/metrics"
	"autoresched/internal/persist"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// Option configures a registry built with NewRegistry, the functional-
// options construction style shared with internal/proto. Each option maps
// onto one Config field; see Config for semantics and defaults.
type Option func(*Config)

// NewRegistry creates a registry/scheduler from functional options.
func NewRegistry(opts ...Option) *Registry {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return newFromConfig(cfg)
}

// WithName sets the registry's protocol name.
func WithName(name string) Option { return func(c *Config) { c.Name = name } }

// WithClock sets the clock driving lease expiry.
func WithClock(clock vclock.Clock) Option { return func(c *Config) { c.Clock = clock } }

// WithLease sets the host lease duration.
func WithLease(d time.Duration) Option { return func(c *Config) { c.Lease = d } }

// WithPolicy sets the migration policy.
func WithPolicy(p *rules.MigrationPolicy) Option { return func(c *Config) { c.Policy = p } }

// WithCommands sets the migrate-order sink, making the registry active.
func WithCommands(s CommandSink) Option { return func(c *Config) { c.Commands = s } }

// WithParent sets the upper-level registry for hierarchical delegation.
func WithParent(p *Registry) Option { return func(c *Config) { c.Parent = p } }

// WithWarmup sets the warm-up damping window.
func WithWarmup(n int) Option { return func(c *Config) { c.Warmup = n } }

// WithCooldown sets the per-host cooldown between migrate orders.
func WithCooldown(d time.Duration) Option { return func(c *Config) { c.Cooldown = d } }

// WithEvents sets the unified runtime event sink receiving the decision
// trace.
func WithEvents(s events.Sink) Option { return func(c *Config) { c.Events = s } }

// WithMetrics sets the metrics registry receiving the registry's counters,
// gauges and latency histograms.
func WithMetrics(m *metrics.Registry) Option { return func(c *Config) { c.Metrics = m } }

// WithStore makes the protocol state durable through a write-ahead store:
// mutations append typed change records, and Restart becomes
// crash-consistent bootstrap instead of a soft-state drop.
func WithStore(s persist.Store) Option { return func(c *Config) { c.Store = s } }

// WithSnapshotEvery folds the state into a compacting store snapshot every
// n appended records (requires WithStore).
func WithSnapshotEvery(n int) Option { return func(c *Config) { c.SnapshotEvery = n } }

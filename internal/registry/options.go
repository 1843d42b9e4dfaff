package registry

import (
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/persist"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// Option configures a registry built with NewRegistry or NewStandby, the
// functional-options construction style shared with internal/proto. Each
// option sets one config field; see config for semantics and defaults.
type Option func(*config)

// NewRegistry creates a registry/scheduler from functional options. It is
// the only constructor.
func NewRegistry(opts ...Option) *Registry {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.name == "" {
		cfg.name = "registry"
	}
	if cfg.clock == nil {
		cfg.clock = vclock.Real()
	}
	if cfg.lease <= 0 {
		cfg.lease = 35 * time.Second
	}
	if cfg.warmup <= 0 {
		cfg.warmup = 3
	}
	if cfg.cooldown <= 0 {
		cfg.cooldown = 60 * time.Second
	}
	r := &Registry{
		cfg:      cfg,
		clock:    cfg.clock,
		probes:   sysinfo.StandardProbes(),
		ctr:      newCounters(cfg.metrics),
		hosts:    make(map[string]*hostEntry),
		sets:     newStateSets(),
		reserved: make(map[string]*GangReservation),
		gangs:    make(map[uint64][]string),
	}
	if cfg.store != nil {
		// Warm start: rebuild the protocol state left by the previous
		// incarnation. A corrupt store falls back to an empty registry — the
		// classic soft-state recovery — rather than refusing to start.
		r.store = cfg.store
		r.storeEpoch = cfg.store.Epoch()
		if err := r.bootstrapLocked(); err != nil {
			r.resetStateLocked(0)
			r.trace(EventRestart, "", 0, "", "bootstrap failed, starting empty: "+err.Error())
		}
	}
	return r
}

// WithName sets the registry's protocol name.
func WithName(name string) Option { return func(c *config) { c.name = name } }

// WithClock sets the clock driving lease expiry.
func WithClock(clock vclock.Clock) Option { return func(c *config) { c.clock = clock } }

// WithLease sets the host lease duration.
func WithLease(d time.Duration) Option { return func(c *config) { c.lease = d } }

// WithPolicy sets the migration policy: when to migrate and which
// destinations qualify. Placement is first fit under any policy.
func WithPolicy(p *rules.MigrationPolicy) Option { return func(c *config) { c.policy = p } }

// WithCommands sets the migrate-order sink, making the registry active.
func WithCommands(s CommandSink) Option { return func(c *config) { c.commands = s } }

// WithParent sets the upper-level registry for hierarchical delegation.
func WithParent(p *Registry) Option { return func(c *config) { c.parent = p } }

// WithWarmup sets the warm-up damping window.
func WithWarmup(n int) Option { return func(c *config) { c.warmup = n } }

// WithCooldown sets the per-host cooldown between migrate orders.
func WithCooldown(d time.Duration) Option { return func(c *config) { c.cooldown = d } }

// WithEvents sets the unified runtime event sink receiving the decision
// trace.
func WithEvents(s metrics.Sink) Option { return func(c *config) { c.events = s } }

// WithMetrics sets the metrics registry receiving the registry's counters,
// gauges and latency histograms.
func WithMetrics(m *metrics.Registry) Option { return func(c *config) { c.metrics = m } }

// WithStore makes the protocol state durable through a write-ahead store:
// mutations append typed change records, and Restart becomes
// crash-consistent bootstrap instead of a soft-state drop.
func WithStore(s persist.Store) Option { return func(c *config) { c.store = s } }

// WithSnapshotEvery folds the state into a compacting store snapshot every
// n appended records (requires WithStore).
func WithSnapshotEvery(n int) Option { return func(c *config) { c.snapshotEvery = n } }

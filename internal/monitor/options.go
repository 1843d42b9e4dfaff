package monitor

import (
	"errors"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// Option configures a monitor built with NewMonitor, the functional-options
// construction style shared with internal/proto and internal/registry. Each
// option sets one config field; see config for semantics and defaults.
type Option func(*config)

// NewMonitor creates a monitor for host from functional options. Host and
// source are the two required inputs, so they are positional. It is the
// only constructor.
func NewMonitor(host string, source sysinfo.Source, opts ...Option) (*Monitor, error) {
	cfg := config{host: host, source: source}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.host == "" {
		return nil, errors.New("monitor: host is required")
	}
	if cfg.source == nil {
		return nil, errors.New("monitor: source is required")
	}
	if cfg.engine == nil {
		cfg.engine = rules.NewEngine(nil)
	}
	if cfg.clock == nil {
		cfg.clock = vclock.Real()
	}
	if cfg.frequency <= 0 {
		cfg.frequency = 10 * time.Second
	}
	if cfg.historySize <= 0 {
		cfg.historySize = 256
	}
	return &Monitor{
		cfg:    cfg,
		sensor: sysinfo.NewSensor(cfg.source),
		clock:  cfg.clock,
	}, nil
}

// WithEngine sets the rule engine deciding the host state.
func WithEngine(e *rules.Engine) Option { return func(c *config) { c.engine = e } }

// WithReporter sets where registrations and status refreshes go.
func WithReporter(r Reporter) Option { return func(c *config) { c.reporter = r } }

// WithClock sets the clock driving the monitoring cycle.
func WithClock(clock vclock.Clock) Option { return func(c *config) { c.clock = clock } }

// WithDefaultFrequency sets the cycle period, the monitor's one
// monitoring frequency.
func WithDefaultFrequency(d time.Duration) Option {
	return func(c *config) { c.frequency = d }
}

// WithHistorySize bounds the monitoring information database.
func WithHistorySize(n int) Option { return func(c *config) { c.historySize = n } }

// WithCharger charges the gathering cost to the monitored host.
func WithCharger(ch Charger, cost float64) Option {
	return func(c *config) { c.charger, c.gatherCost = ch, cost }
}

// WithCommandAddr sets the local commander's endpoint sent at registration.
func WithCommandAddr(addr string) Option { return func(c *config) { c.commandAddr = addr } }

// WithSoftware lists locally installed packages for requirement matching.
func WithSoftware(pkgs []string) Option { return func(c *config) { c.software = pkgs } }

// WithMetrics sets the metrics registry receiving the monitor's cycle
// histogram and re-registration counter.
func WithMetrics(m *metrics.Registry) Option { return func(c *config) { c.metrics = m } }

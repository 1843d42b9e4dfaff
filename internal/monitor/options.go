package monitor

import (
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// Option configures a monitor built with NewMonitor, the functional-options
// construction style shared with internal/proto and internal/registry. Each
// option maps onto one Config field; see Config for semantics and defaults.
type Option func(*Config)

// NewMonitor creates a monitor for host from functional options. Host and
// source are the two required inputs, so they are positional. It is the
// only constructor.
func NewMonitor(host string, source sysinfo.Source, opts ...Option) (*Monitor, error) {
	cfg := Config{Host: host, Source: source}
	for _, o := range opts {
		o(&cfg)
	}
	return newFromConfig(cfg)
}

// WithEngine sets the rule engine deciding the host state.
func WithEngine(e *rules.Engine) Option { return func(c *Config) { c.Engine = e } }

// WithReporter sets where registrations and status refreshes go.
func WithReporter(r Reporter) Option { return func(c *Config) { c.Reporter = r } }

// WithClock sets the clock driving the monitoring cycle.
func WithClock(clock vclock.Clock) Option { return func(c *Config) { c.Clock = clock } }

// WithDefaultFrequency sets the fallback cycle period.
func WithDefaultFrequency(d time.Duration) Option {
	return func(c *Config) { c.DefaultFrequency = d }
}

// WithHistorySize bounds the monitoring information database.
func WithHistorySize(n int) Option { return func(c *Config) { c.HistorySize = n } }

// WithCharger charges the gathering cost to the monitored host.
func WithCharger(ch Charger, cost float64) Option {
	return func(c *Config) { c.Charger, c.GatherCost = ch, cost }
}

// WithCommandAddr sets the local commander's endpoint sent at registration.
func WithCommandAddr(addr string) Option { return func(c *Config) { c.CommandAddr = addr } }

// WithSoftware lists locally installed packages for requirement matching.
func WithSoftware(pkgs []string) Option { return func(c *Config) { c.Software = pkgs } }

// WithMetrics sets the metrics registry receiving the monitor's cycle
// histogram and re-registration counter.
func WithMetrics(m *metrics.Registry) Option { return func(c *Config) { c.Metrics = m } }

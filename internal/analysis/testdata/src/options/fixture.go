// Fixture for the options-hygiene check: an exported Options field the
// declaring package never reads is dead configuration.
package optdemo

// Options configures the demo component.
type Options struct {
	// Workers is read by apply: live configuration.
	Workers int
	// Verbose is accepted but never consulted.
	Verbose bool // want `\[optionsfield\] exported field Options\.Verbose is never read by optdemo \(dead configuration\)`

	// limit is unexported: out of scope.
	limit int
}

func apply(o Options) int {
	o.Verbose = false // a plain-assignment write does not count as a read
	return o.Workers
}

func setLimit(o *Options) { o.limit = 3 }

// Config-named structs are under the same rule as Options.
type Config struct {
	// Interval is read by tick: live configuration.
	Interval int
	// Burst is accepted but never consulted.
	Burst int // want `\[optionsfield\] exported field Config\.Burst is never read by optdemo \(dead configuration\)`
}

func tick(c Config) int { return c.Interval }

var _ = apply
var _ = setLimit
var _ = tick

// An option target is checked whatever its name, unexported fields
// included: every field must be read, and set by an option or by a
// constructor's composite literal of the target.
type settings struct {
	// workers is set by WithWorkers and read by newDemo: live.
	workers int
	// retries is keyed in newDemo's literal (a positional argument) and
	// read: live.
	retries int
	// verbose is set by WithVerbose and never read.
	verbose bool // want `\[optionsfield\] field settings\.verbose is never read by optdemo \(dead configuration\)`
	// burst is read, but only a default fill and a non-option function
	// write it: no caller can reach it.
	burst int // want `\[optionsfield\] field settings\.burst is never set by an option of optdemo \(dead configuration\)`
	// idle is neither set nor read.
	idle int // want `\[optionsfield\] field settings\.idle is never (read by|set by an option of) optdemo \(dead configuration\)`
}

// Option configures newDemo.
type Option func(*settings)

// WithWorkers sets workers.
func WithWorkers(n int) Option { return func(s *settings) { s.workers = n } }

// WithVerbose sets verbose.
func WithVerbose() Option { return func(s *settings) { s.verbose = true } }

func newDemo(retries int, opts ...Option) int {
	s := settings{retries: retries}
	for _, o := range opts {
		o(&s)
	}
	if s.burst == 0 {
		s.burst = 4 // a default fill is not an option
	}
	return s.workers + s.retries + s.burst
}

func tune(s *settings) { s.burst = 8 } // not of the option type: not an option

var _ = newDemo
var _ = tune

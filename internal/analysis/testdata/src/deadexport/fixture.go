// Fixture for the deadexport check, loaded as autoresched/internal/scenario
// beside user/, a second package that is only a test file, and hpcm/, the
// keep table's type case: one case per reference and write rule, each with
// a want or deliberately without one.
package scenario

import "encoding/json"

// Unread is an exported func nothing calls.
func Unread() {} // want `\[deadexport\] func scenario\.Unread: no reader outside scenario's own tests \(own-test mentions: 0\)`

// OwnTestOnly is called by this package's own test alone.
func OwnTestOnly() {} // want `\[deadexport\] func scenario\.OwnTestOnly: no reader outside scenario's own tests \(own-test mentions: 1\)`

// OtherTestReads is called by user's test: another package's test reads it.
func OtherTestReads() {}

// RunLive is on the keep table.
func RunLive() {}

// chirper is an interface the package uses.
type chirper interface{ Chirp() string }

// Bird's Chirp satisfies chirper, so a call through chirper reads it.
type Bird struct{}

func (Bird) Chirp() string { return "tweet" }

func sing(c chirper) string { return c.Chirp() }

// Flight configures a demo run.
type Flight struct {
	// Plies is set in a literal and read by fly: live.
	Plies int
	// Laps is only default-filled: nothing consults it.
	Laps int // want `\[deadexport\] field scenario\.Flight\.Laps: no reader outside scenario's own tests \(own-test mentions: 0\)`
	// Squawk is assigned but never read: a write is not a read.
	Squawk bool // want `\[deadexport\] field scenario\.Flight\.Squawk: no reader outside scenario's own tests`
	// Motto is read by encoding/json through its tag.
	Motto string `json:"motto"`
}

func fly(f Flight) ([]byte, int) {
	if f.Laps == 0 {
		f.Laps = 3
	}
	f.Squawk = false
	out, _ := json.Marshal(f)
	return out, f.Plies
}

var _ = sing(Bird{})
var _, _ = fly(Flight{Plies: 2})

// settings is the config-struct case, an option target: every field,
// unexported ones included, must be read, and set by an option or by a
// constructor's composite literal of the target.
type settings struct {
	// roost is set by WithRoost and read by hatch: live.
	roost int
	// nest is keyed in hatch's literal (a positional argument) and read:
	// live.
	nest int
	// molt is set by WithMolt and never read.
	molt bool // want `\[deadexport\] field scenario\.settings\.molt: no reader outside scenario's own tests`
	// beak is read, but only a default fill and a non-option function
	// write it: no caller can reach it.
	beak int // want `\[deadexport\] field scenario\.settings\.beak is never set by an option of its package \(dead configuration\)`
	// perch is neither set nor read.
	perch int // want `\[deadexport\] field scenario\.settings\.perch(: no reader| is never set)`
}

// Option configures hatch.
type Option func(*settings)

// WithRoost sets roost.
func WithRoost(n int) Option { return func(s *settings) { s.roost = n } }

// WithMolt sets molt.
func WithMolt() Option { return func(s *settings) { s.molt = true } }

func hatch(nest int, opts ...Option) int {
	s := settings{nest: nest}
	for _, o := range opts {
		o(&s)
	}
	if s.beak == 0 {
		s.beak = 4 // a default fill is not an option
	}
	return s.roost + s.nest + s.beak
}

func preen(s *settings) { s.beak = 8 } // not a function literal: not an option

var _ = hatch(1, WithRoost(2), WithMolt())
var _ = preen

// Clutch is the write rule's case: an exported field that is read must
// also be set by non-test code.
type Clutch struct {
	// Eggs is read, and nothing sets it.
	Eggs int // want `\[deadexport\] field scenario\.Clutch\.Eggs: no non-test code sets it \(own-test mentions: 0\)`
	// Warmth is read, and only this package's own test sets it.
	Warmth int // want `\[deadexport\] field scenario\.Clutch\.Warmth: no non-test code sets it \(own-test mentions: 1\)`
	// Days is read, and only a default fill writes it.
	Days int // want `\[deadexport\] field scenario\.Clutch\.Days: no non-test code sets it`
	// Weight is set through &c.Weight: live.
	Weight int
	// Shell is keyed in brood's literal: live.
	Shell Shell
}

// Shell's fields are set positionally: live.
type Shell struct{ Hue, Width int }

// Band is filled by a decoder through a pointer passed as any: exempt.
type Band struct{ Ring string }

func weigh(n *int) { *n = 3 }

func brood(data []byte) int {
	c := Clutch{Shell: Shell{1, 2}}
	if c.Days == 0 {
		c.Days = 21
	}
	weigh(&c.Weight)
	var b Band
	_ = json.Unmarshal(data, &b)
	return c.Eggs + c.Warmth + c.Days + c.Weight + c.Shell.Hue + c.Shell.Width + len(b.Ring)
}

var _ = brood(nil)

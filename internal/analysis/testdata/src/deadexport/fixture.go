// Fixture for the deadexport check, loaded as autoresched/internal/scenario
// beside user/, a second package that reads it from its code and its test
// through a copy of its own, and hpcm/, the keep table's type case: one case
// per reference and write rule, each with a want or deliberately without
// one.
package scenario

import (
	"encoding/json"
	"sync"
)

// Unread is an exported func nothing calls.
func Unread() {} // want `\[deadexport\] func scenario\.Unread: no reader outside scenario's own tests \(own-test reads: 0\)`

// OwnTestOnly is called by this package's own test alone.
func OwnTestOnly() {} // want `\[deadexport\] func scenario\.OwnTestOnly: no reader outside scenario's own tests \(own-test reads: 1\)`

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
	Laps int // want `\[deadexport\] field scenario\.Flight\.Laps: no reader outside scenario's own tests \(own-test reads: 0\)`
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
	Eggs int // want `\[deadexport\] field scenario\.Clutch\.Eggs: no non-test code sets it \(own-test reads: 0\)`
	// Warmth is read, and only this package's own test sets it.
	Warmth int // want `\[deadexport\] field scenario\.Clutch\.Warmth: no non-test code sets it \(own-test reads: 0\)`
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

// Perch's Height is read by user's test.
type Perch struct{ Height int }

// Roost's Height has the same name, and user's test does not read it: a
// selector resolves to one field, not to every field of its name.
type Roost struct {
	Height int // want `\[deadexport\] field scenario\.Roost\.Height: no reader outside scenario's own tests \(own-test reads: 0\)`
}

var _, _ = Perch{Height: 1}, Roost{Height: 2}

// Lay is called by this package's external test alone, which is one of its
// own tests.
func Lay() {} // want `\[deadexport\] func scenario\.Lay: no reader outside scenario's own tests \(own-test reads: 1\)`

// incubate is reached only through export_test.go's Incubate, which the
// external test calls.
func incubate() int { return 21 } // want `\[deadexport\] func scenario\.incubate: no reader outside scenario's own tests \(own-test reads: 1\)`

// flutter is a method only this package's own test calls.
func (Bird) flutter() {} // want `\[deadexport\] method scenario\.Bird\.flutter: no reader outside scenario's own tests \(own-test reads: 1\)`

// nest's twigs is written and never read.
type nest struct {
	twigs int // want `\[deadexport\] field scenario\.nest\.twigs: no reader outside scenario's own tests \(own-test reads: 0\)`
}

func build() (n nest) {
	n.twigs = 3
	return n
}

// coop's mu is never used, and exempt as a sync type.
type coop struct {
	mu   sync.Mutex
	hens int
}

// band is a map key and ring is compared with ==: comparing a value reads
// every field, so neither has a finding.
type band struct{ leg, color int }

type ring struct{ size int }

func same(a, b ring) bool { return a == b }

var _, _, _ = build(), coop{}.hens, same(ring{1}, ring{2})
var _ = map[band]bool{{1, 2}: true}

// Epoch is the type Store's method names.
type Epoch int

// Store is called only by user, which sees this package through a copy of
// its own, as a module package sees another through export data.
type Store interface{ Fence(Epoch) error }

// Vault's Fence satisfies Store only in the copy whose Epoch it names, this
// package's own: it has no finding.
type Vault struct{}

func (*Vault) Fence(Epoch) error { return nil }

var _ = new(Vault)

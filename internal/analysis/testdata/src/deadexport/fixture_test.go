package scenario

import "testing"

// TestOwnTestOnly is the package's own test, which reads and sets nothing
// for deadexport.
func TestOwnTestOnly(t *testing.T) {
	OwnTestOnly()
	_ = Clutch{Warmth: 1}
	Bird{}.flutter()
}

package scenario

import "testing"

// TestOwnTestOnly is the package's own test, which reads nothing for
// deadexport.
func TestOwnTestOnly(t *testing.T) { OwnTestOnly() }

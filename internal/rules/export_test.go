// Accessors only the tests of package rules call.

package rules

import "math"

// Equal reports whether two schemas describe the same estimates, ignoring
// statistics.
func (s *Schema) Equal(o *Schema) bool {
	if s.Name != o.Name || s.CommBytes != o.CommBytes || s.LocalDataBytes != o.LocalDataBytes {
		return false
	}
	if math.Abs(s.Estimate.Seconds-o.Estimate.Seconds) > 1e-9 ||
		math.Abs(s.Estimate.CPUSpeed-o.Estimate.CPUSpeed) > 1e-9 {
		return false
	}
	if len(s.Characteristics) != len(o.Characteristics) {
		return false
	}
	for i := range s.Characteristics {
		if s.Characteristics[i] != o.Characteristics[i] {
			return false
		}
	}
	return true
}

// Package user reads the deadexport fixture from another package: its code
// calls through the fixture's Store.
package user

import "autoresched/internal/scenario"

// Flush fences s.
func Flush(s scenario.Store) error { return s.Fence(1) }

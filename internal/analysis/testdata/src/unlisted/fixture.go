// Package unlisted impersonates a module package that no row of the layer
// table names.
package unlisted // want `\[layering\] package internal/unlisted is in no row of the layer table`

// Answer keeps the package non-empty.
const Answer = 42

// Package widget defines the type the root package aliases.
package widget

import "example.com/fix/internal/lib"

// Widget is re-exported by the root package.
type Widget struct{ c lib.Code }

// Ping is called by nothing, but the root alias makes it public API.
func (w Widget) Ping() error { return w.c }

// Package fix is the dead-export rule's fixture module: its root package
// aliases one internal type and calls one internal function.
package fix

import (
	"example.com/fix/internal/lib"
	"example.com/fix/internal/widget"
)

// Widget re-exports the internal type, so its methods are public API.
type Widget = widget.Widget

// Run is the fixture's one production call into lib.
func Run() error { return lib.Used() }

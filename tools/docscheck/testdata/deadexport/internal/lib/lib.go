// Package lib holds one export of each kind the dead-export rule sorts.
package lib

import "errors"

// Used is called by the root package.
func Used() error {
	if err := ownOnlyCaller(); err != nil {
		return err
	}
	return nil
}

func ownOnlyCaller() error { return OwnOnly() }

// OwnOnly is called only inside lib: an unexport candidate, not a failure.
func OwnOnly() error { return ErrFixture }

// ErrFixture is an error value only lib itself returns.
var ErrFixture = errors.New("fixture")

// NestedUse is called only from the nested module.
func NestedUse() {}

// Seam is referenced by no non-test file but kept on purpose.
func Seam() {}

// TestOnly is called only by lib's own test.
func TestOnly() {}

// Dead is referenced by nothing.
func Dead() {}

// Code is an error type whose Error method only the standard library calls.
type Code int

func (c Code) Error() string { return "code" }

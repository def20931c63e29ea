package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestDeadExportsFixture runs rule 5 over testdata/deadexport, a module
// with one internal export of each kind the rule sorts, and a nested
// module that imports one of its internal packages.
func TestDeadExportsFixture(t *testing.T) {
	kept := map[string]string{
		"lib.Seam": "kept on purpose",
		"lib.Used": "needs no entry: the root package calls it",
	}
	var reports, notes []string
	err := checkDeadExports("testdata/deadexport", kept,
		func(format string, args ...any) { reports = append(reports, fmt.Sprintf(format, args...)) },
		func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) })
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Join(reports, "\n")
	for _, want := range []string{
		"internal/lib/lib.go:32: lib.Dead is referenced by no non-test file",
		"internal/lib/lib.go:29: lib.TestOnly is referenced by no non-test file",
		"keptExports entry lib.Used names no unreferenced export",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("reports lack %q:\n%s", want, all)
		}
	}
	if len(reports) != 3 {
		t.Errorf("%d reports, want 3:\n%s", len(reports), all)
	}
	for _, quiet := range []string{"Widget.Ping", "NestedUse", "Seam", "Code.Error", "Used is"} {
		if strings.Contains(all, quiet) {
			t.Errorf("reports flag %s:\n%s", quiet, all)
		}
	}
	wantNotes := []string{
		"internal/lib/lib.go:17: lib.OwnOnly is used only inside its own package (unexport candidate)",
		"internal/lib/lib.go:20: lib.ErrFixture is used only inside its own package (unexport candidate)",
	}
	if strings.Join(notes, "\n") != strings.Join(wantNotes, "\n") {
		t.Errorf("notes:\n%s\nwant:\n%s", strings.Join(notes, "\n"), strings.Join(wantNotes, "\n"))
	}
}

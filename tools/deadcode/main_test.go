package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestScanFixture pins the rules on a small module. Reported: a
// declaration used only by its own package's test, a type whose only
// other use is its own method's receiver, a constant that is only
// compared, a constant produced only by its own package's test, and a
// field that is only written. Not reported: a declaration used by
// another package's test, a method reached only through an interface,
// a declaration used by a nested module, a constant produced by another
// package's test, the fields of a map-key struct, a tagged field, and a
// field read only by a test.
func TestScanFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:22: lib.SelfKept",
		"internal/lib/lib.go:25: lib.SelfKept.Run",
		"internal/lib/lib.go:5: lib.OwnTestOnly",
		"internal/lib/values.go:11: lib.ModeCompared (compared, never produced)",
		"internal/lib/values.go:13: lib.ModeOwnTest (compared, never produced)",
		"internal/lib/values.go:21: lib.Record.written (written, never read)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestScanFixture pins the rule on a small module: a declaration used
// only by its own package's test is reported, and so is a type whose
// only other use is its own method's receiver; one used by another
// package's test, a method reached only through an interface, and a
// declaration used by a nested module are not.
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
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

package exp

import (
	"os"
	"strings"
	"testing"
)

// TestGreedyPolicyByteIdentical pins every experiment whose table is
// deterministic across processes at DefaultOptions (seed 1, AuditEvery
// 10, the mdcexp defaults). Only E2 and E3 are left out: they print
// wall-clock columns.
//
// The e1, e7, e12, e14 and e17 goldens predate the policy framework and
// pin the extracted greedy policy against the historical inline scans;
// e17 was re-captured after the alias-sampler change, and e1/e12 before
// the switch-pod hierarchy and first-fit packing were routed through the
// manager's placement (see CHANGES.md). Any diff here means a change
// altered experiment output.
func TestGreedyPolicyByteIdentical(t *testing.T) {
	o := DefaultOptions()
	for _, id := range []string{
		"e1", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
		"e13", "e14", "e15", "e16", "e17", "e18", "x1", "x2", "x3", "x4",
	} {
		golden, err := os.ReadFile("testdata/" + id + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s: no such experiment", id)
		}
		tb, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := strings.TrimRight(tb.String(), "\n")
		want := strings.TrimRight(string(golden), "\n")
		if got != want {
			t.Errorf("%s table diverged from its golden.\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
		}
	}
}

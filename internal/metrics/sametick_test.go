package metrics

import (
	"strings"
	"testing"
)

// Same-tick observations are routine in the simulator: several control
// loops can fire callbacks at one engine time and each may record
// metrics. Recording at t == lastT must be accepted (it contributes a
// zero-duration interval); only strictly backwards time is a bug worth
// a panic. These tests pin that contract for Gauge and Availability.

func TestGaugeSameTickSet(t *testing.T) {
	g := &Gauge{}
	g.Set(10, 4)
	g.Set(10, 7) // same tick: instant re-set, zero weighted area
	g.Set(10, 2)
	if got := g.Value(); got != 2 {
		t.Fatalf("Value = %v, want the last same-tick set 2", got)
	}
	g.Set(20, 2)
	// Only the value standing when time advanced (2) accrues area.
	if got := g.Average(20); got != 2 {
		t.Fatalf("Average(20) = %v, want 2 (same-tick sets carry no weight)", got)
	}
}

func TestAvailabilitySameTickObserve(t *testing.T) {
	a := NewAvailability(0.95)
	a.Observe("app", 0, 100, 100)
	a.Observe("app", 10, 50, 100) // outage opens
	a.Observe("app", 10, 40, 100) // same tick again: must not panic
	a.Observe("app", 10, 100, 100)
	a.Observe("app", 20, 100, 100)
	a.Finalize(20)
	// The outage opened at t=10 and the same-tick recovery closed it at
	// t=10: zero downtime, but the outage itself is counted.
	if got := a.Downtime("app"); got != 0 {
		t.Fatalf("Downtime = %v, want 0 for a same-tick outage", got)
	}
	if got := a.Outages("app"); got != 1 {
		t.Fatalf("Outages = %d, want 1", got)
	}
	// Shortfall integrated over zero duration is zero.
	if got := a.Unserved("app"); got != 0 {
		t.Fatalf("Unserved = %v, want 0", got)
	}
}

func TestAvailabilityBackwardsTimePanicNamesKey(t *testing.T) {
	a := NewAvailability(0.95)
	a.Observe("svc-a", 10, 100, 100)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("backwards time did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"svc-a", "time went backwards"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	a.Observe("svc-a", 9, 100, 100)
}

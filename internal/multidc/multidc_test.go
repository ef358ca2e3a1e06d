package multidc

import (
	"math"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/sim"
)

func slice() cluster.Resources { return cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100} }

// newFed builds a federation with two DCs: "big" (4 pods × 8 servers)
// and "small" (2 pods × 4 servers).
func newFed(t *testing.T) (*Federation, *DC, *DC) {
	t.Helper()
	f := New(sim.New(1))
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = 2
	big := core.SmallTopology()
	bigDC, err := f.AddDC("big", big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := core.SmallTopology()
	small.Pods = 2
	small.ServersPerPod = 4
	smallDC, err := f.AddDC("small", small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, bigDC, smallDC
}

func TestOnboardSplitsDemandEvenly(t *testing.T) {
	f, big, small := newFed(t)
	id, err := f.OnboardApp("a", slice(), 2, core.Demand{CPU: 8, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	shares := f.Shares(id)
	if math.Abs(shares["big"]-0.5) > 1e-9 || math.Abs(shares["small"]-0.5) > 1e-9 {
		t.Errorf("shares = %v", shares)
	}
	for _, dc := range []*DC{big, small} {
		local, ok := f.apps[id].locals[dc.id]
		if !ok {
			t.Fatalf("no local app in %s", dc.Name)
		}
		if got := dc.P.AppDemand(local); math.Abs(got.CPU-4) > 1e-9 {
			t.Errorf("%s demand = %v, want 4", dc.Name, got.CPU)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := f.Demand(id); got.CPU != 8 {
		t.Errorf("Demand = %v", got)
	}
}

func TestOnboardSubsetOfDCs(t *testing.T) {
	f, big, small := newFed(t)
	id, err := f.OnboardApp("only-big", slice(), 2, core.Demand{CPU: 2, Mbps: 50}, big)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.apps[id].locals[small.id]; ok {
		t.Error("app onboarded in unlisted DC")
	}
	if got := f.Shares(id)["big"]; got != 1 {
		t.Errorf("single-DC share = %v", got)
	}
	// Empty federation rejects onboarding.
	empty := New(sim.New(2))
	if _, err := empty.OnboardApp("x", slice(), 1, core.Demand{}); err == nil {
		t.Error("onboarding into empty federation accepted")
	}
}

func TestStepShiftsDemandFromHotToColdDC(t *testing.T) {
	f, big, small := newFed(t)
	// Demand sized so the small DC (64 cores) runs hot at a 50% share
	// while the big DC (256 cores) stays cold.
	id, err := f.OnboardApp("a", slice(), 4, core.Demand{CPU: 110, Mbps: 400})
	if err != nil {
		t.Fatal(err)
	}
	if u := f.Utilization(small); u <= hotUtil {
		t.Fatalf("setup: small DC util %v not hot", u)
	}
	if u := f.Utilization(big); u >= coldUtil {
		t.Fatalf("setup: big DC util %v not cold", u)
	}
	for i := 0; i < 12; i++ {
		f.Step()
	}
	shares := f.Shares(id)
	if shares["small"] >= 0.5 {
		t.Errorf("share did not move off the hot DC: %v", shares)
	}
	if shares["big"] <= 0.5 {
		t.Errorf("cold DC gained nothing: %v", shares)
	}
	if u := f.Utilization(small); u > hotUtil {
		t.Errorf("small DC still hot after steering: %v", u)
	}
	if f.Shifts == 0 {
		t.Error("no shifts recorded")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Total demand conserved across DCs.
	var total float64
	for _, dc := range f.dcs {
		total += dc.P.AppDemand(f.apps[id].locals[dc.id]).CPU
	}
	if math.Abs(total-110) > 1e-6 {
		t.Errorf("demand not conserved: %v", total)
	}
}

func TestFederationWithControlLoopsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	f, _, small := newFed(t)
	id, err := f.OnboardApp("a", slice(), 4, core.Demand{CPU: 40, Mbps: 300})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(60)
	f.Eng.RunUntil(600)
	// Surge: more than the small DC could ever hold at its share.
	f.SetDemand(id, core.Demand{CPU: 140, Mbps: 600})
	f.Eng.RunUntil(3600)
	if got := f.TotalSatisfaction(); got < 0.9 {
		t.Errorf("federation satisfaction = %v", got)
	}
	if u := f.Utilization(small); u > hotUtil+0.1 {
		t.Errorf("small DC left hot: %v", u)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleSnapshotsDelaySteering pins the SnapshotEvery semantics:
// the federation steers on the utilization it saw at the last snapshot,
// so a demand spike between snapshots is invisible to Step until the
// snapshot refreshes — and with SnapshotEvery unset, Step reacts to the
// same spike immediately.
func TestStaleSnapshotsDelaySteering(t *testing.T) {
	run := func(snapEvery float64) (shiftsBeforeRefresh, shiftsAfter int64) {
		f, _, _ := newFed(t)
		f.SnapshotEvery = snapEvery
		id, err := f.OnboardApp("a", slice(), 4, core.Demand{CPU: 10, Mbps: 100})
		if err != nil {
			t.Fatal(err)
		}
		f.Start(10)
		f.Eng.RunUntil(5)
		// Spike right after t=0: the t=0 snapshot saw a cold world.
		f.SetDemand(id, core.Demand{CPU: 110, Mbps: 400})
		// Steps at t=10..90 run against the stale (or live) view; the
		// snapshotter refreshes at multiples of SnapshotEvery.
		f.Eng.RunUntil(95)
		shiftsBeforeRefresh = f.Shifts
		f.Eng.RunUntil(400)
		return shiftsBeforeRefresh, f.Shifts
	}
	liveBefore, _ := run(0)
	if liveBefore == 0 {
		t.Fatal("live steering never reacted to the spike")
	}
	staleBefore, staleAfter := run(100)
	if staleBefore != 0 {
		t.Errorf("stale steering shifted %d times before the snapshot refreshed", staleBefore)
	}
	if staleAfter == 0 {
		t.Error("steering never caught up after the snapshot refreshed")
	}
}

func TestSetDemandErrors(t *testing.T) {
	f, _, _ := newFed(t)
	if err := f.SetDemand(99, core.Demand{CPU: 1}); err == nil {
		t.Error("unknown app accepted")
	}
	if got := f.Demand(99); got != (core.Demand{}) {
		t.Errorf("unknown Demand = %v", got)
	}
	if got := f.Shares(99); len(got) != 0 {
		t.Errorf("unknown Shares = %v", got)
	}
}

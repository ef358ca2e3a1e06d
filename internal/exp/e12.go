package exp

import (
	"fmt"
	"math"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/policy"
	"megadc/internal/viprip"
	"megadc/internal/workload"
)

// E12Result records the allocation-space analysis and policy ablation.
type E12Result struct {
	// Log10States is log10 of the VIP-placement state space L^(A·k) for
	// the paper's 300K apps / 400 switches / 3 VIPs (the paper writes
	// the expression as A^(L·k); the count of functions from A·k VIP
	// slots to L switches is L^(A·k) — either way astronomically large,
	// which is the paper's point).
	Log10States float64
	Policies    []E12PolicyRow
	Pods        []E12PodRow
}

// E12PolicyRow is one switch-selection policy's outcome.
type E12PolicyRow struct {
	Policy        string
	ThroughputCoV float64
}

// E12PodRow is one hierarchical switch-pod configuration.
type E12PodRow struct {
	ScanPerAlloc int // switches examined per allocation decision
}

// RunE12 (a) computes the size of the VIP allocation decision space the
// paper calls out in Section V-A, (b) ablates the greedy allocator's
// switch-selection policy, and (c) evaluates the proposed hierarchical
// LB-switch pods that bound allocator work.
func RunE12(o Options) (*metrics.Table, *E12Result, error) {
	res := &E12Result{
		Log10States: 300_000 * 3 * math.Log10(400),
	}
	nApps := 600
	nSwitches := 16
	if o.Full {
		nApps = 6000
		nSwitches = 64
	}
	weights := workload.ZipfWeights(nApps, 0.9)
	limits := lbswitch.CatalystCSM().Scaled(10)
	totalMbps := 0.6 * limits.ThroughputMbps * float64(nSwitches)

	tb := metrics.NewTable("E12 — VIP allocation: state space, policies, switch pods",
		"row", "value", "vip CoV", "tput CoV", "max util", "scan/alloc")
	tb.AddRow("state space (log10, 300K apps, 400 sw, k=3)",
		fmt.Sprintf("10^%.3g", res.Log10States), "-", "-", "-", "-")

	// First-fit is a placement strategy, not a score: it takes the
	// lowest-ID switch with room whatever the score says.
	for _, pol := range []struct {
		name  string
		score viprip.Policy
		place policy.Placement
	}{
		{"first-fit", viprip.Blend, policy.FirstFit{}},
		{viprip.LeastVIPs.String(), viprip.LeastVIPs, nil},
		{viprip.LeastLoad.String(), viprip.LeastLoad, nil},
		{viprip.Blend.String(), viprip.Blend, nil},
	} {
		vipCoV, tputCoV, maxU, err := allocateWithPolicy(nApps, nSwitches, pol.score, pol.place, weights, totalMbps, limits)
		if err != nil {
			return nil, nil, err
		}
		res.Policies = append(res.Policies, E12PolicyRow{Policy: pol.name, ThroughputCoV: tputCoV})
		tb.AddRow("policy "+pol.name, "-", vipCoV, tputCoV, maxU, nSwitches)
	}
	for _, pods := range []int{1, 4, 16} {
		if pods > nSwitches {
			continue
		}
		tputCoV, maxU, scans, err := allocateHierarchical(nApps, nSwitches, pods, weights, totalMbps, limits)
		if err != nil {
			return nil, nil, err
		}
		res.Pods = append(res.Pods, E12PodRow{ScanPerAlloc: scans})
		tb.AddRow(fmt.Sprintf("switch pods G=%d (blend)", pods), "-", "-", tputCoV, maxU, scans)
	}
	return tb, res, nil
}

// allocateHierarchical places nApps×3 VIPs through the viprip.Hierarchy
// (the Section V-A switch-pod manager) and reports balance plus the
// measured switch scans per allocation.
func allocateHierarchical(nApps, nSwitches, pods int, weights []float64, totalMbps float64, limits lbswitch.Limits) (tputCoV, maxUtil float64, scansPerAlloc int, err error) {
	mgr, err := newE12Manager(nApps, nSwitches, viprip.Blend, limits)
	if err != nil {
		return 0, 0, 0, err
	}
	h, err := viprip.NewHierarchy(mgr, pods)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := placeE12Apps(mgr.Fabric(), nApps, weights, totalMbps, h.AddVIP); err != nil {
		return 0, 0, 0, err
	}
	if err := h.CheckInvariants(); err != nil {
		return 0, 0, 0, err
	}
	_, tputCoV, maxUtil = switchBalance(mgr.Fabric())
	return tputCoV, maxUtil, int(h.Scans) / (3 * nApps), nil
}

// allocateWithPolicy places nApps×3 VIPs through a flat manager ranking
// switches by score; a nil place keeps the default greedy placement.
func allocateWithPolicy(nApps, nSwitches int, score viprip.Policy, place policy.Placement,
	weights []float64, totalMbps float64, limits lbswitch.Limits) (vipCoV, tputCoV, maxUtil float64, err error) {
	mgr, err := newE12Manager(nApps, nSwitches, score, limits)
	if err != nil {
		return 0, 0, 0, err
	}
	mgr.SetPlacement(place)
	if err := placeE12Apps(mgr.Fabric(), nApps, weights, totalMbps, mgr.AddVIP); err != nil {
		return 0, 0, 0, err
	}
	vipCoV, tputCoV, maxUtil = switchBalance(mgr.Fabric())
	return vipCoV, tputCoV, maxUtil, nil
}

// newE12Manager builds nSwitches identical switches under a manager
// with address room for nApps×3 VIPs.
func newE12Manager(nApps, nSwitches int, score viprip.Policy, limits lbswitch.Limits) (*viprip.Manager, error) {
	fab := lbswitch.NewFabric()
	for i := 0; i < nSwitches; i++ {
		fab.AddSwitch(limits)
	}
	vp, err := viprip.NewIPPool("100.64.0.0", uint32(3*nApps+16))
	if err != nil {
		return nil, err
	}
	rp, err := viprip.NewIPPool("10.0.0.0", 16)
	if err != nil {
		return nil, err
	}
	return viprip.NewManager(fab, vp, rp, score), nil
}

// placeE12Apps adds three VIPs per app through add, each carrying a
// third of the app's Zipf share of totalMbps.
func placeE12Apps(fab *lbswitch.Fabric, nApps int, weights []float64, totalMbps float64,
	add func(cluster.AppID) (lbswitch.VIP, lbswitch.SwitchID, error)) error {
	for a := 0; a < nApps; a++ {
		mbps := totalMbps * weights[a]
		for v := 0; v < 3; v++ {
			vip, sw, err := add(cluster.AppID(a))
			if err != nil {
				return fmt.Errorf("exp: e12 app %d: %w", a, err)
			}
			if err := fab.Switch(sw).SetVIPLoad(vip, mbps/3); err != nil {
				return err
			}
		}
	}
	return nil
}

// switchBalance reports the CoV of per-switch VIP counts and
// utilizations, and the maximum utilization.
func switchBalance(fab *lbswitch.Fabric) (vipCoV, tputCoV, maxUtil float64) {
	var vipCounts, utils []float64
	for _, sw := range fab.Switches() {
		vipCounts = append(vipCounts, float64(sw.NumVIPs()))
		u := sw.Utilization()
		utils = append(utils, u)
		if u > maxUtil {
			maxUtil = u
		}
	}
	return metrics.CoefficientOfVariation(vipCounts), metrics.CoefficientOfVariation(utils), maxUtil
}

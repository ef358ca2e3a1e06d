// Linkbalance: compares the paper's *selective VIP exposure* knob
// (Section IV-A) against the naive VIP re-advertisement baseline on an
// overloaded access link, printing the hot link's utilization timeline
// for both strategies and the route-update cost.
//
//	go run ./examples/linkbalance
package main

import (
	"fmt"

	"megadc/internal/baseline"
)

func main() {
	cfg := baseline.DefaultTEConfig()
	cfg.WarmupSec = 600
	cfg.HorizonSec = 2400

	fmt.Println("scenario: one app's sessions overload the hot access link (~120% at warmup);")
	fmt.Printf("intervention at t=%.0fs; relief when hot-link utilization < %.0f%%\n\n",
		cfg.WarmupSec, baseline.TETargetUtil*100)

	sel := baseline.RunSelectiveExposureTE(cfg)
	naive := baseline.RunNaiveReadvertTE(cfg)

	fmt.Println("hot-link utilization timeline:")
	fmt.Println("t(s)    selective  naive")
	for _, t := range []float64{300, 600, 660, 720, 840, 960, 1200, 1800, 2399} {
		fmt.Printf("%5.0f   %9.2f  %5.2f\n", t, at(sel, t), at(naive, t))
	}
	fmt.Println()
	for _, r := range []baseline.TEResult{sel, naive} {
		relief := fmt.Sprintf("%.0f s", r.ReliefTime)
		if r.ReliefTime < 0 {
			relief = "never"
		}
		fmt.Printf("%-20s relief=%-8s route updates=%d  final hot=%.2f cold=%.2f\n",
			r.Strategy, relief, r.RouteUpdates, r.FinalHotUtil, r.FinalColdUtil)
	}
	fmt.Println("\npaper's claim: overloaded links are relieved as soon as DNS starts exposing")
	fmt.Println("new VIPs, and routing updates are infrequent (zero here) — reproduced above.")
}

// at returns the timeline value at the sample nearest to (and not after) t.
func at(r baseline.TEResult, t float64) float64 {
	var v float64
	for _, p := range r.HotTimeline.Points() {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

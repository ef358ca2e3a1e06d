package exp

import (
	"fmt"

	"megadc/internal/baseline"
	"megadc/internal/metrics"
)

// E4Result records the traffic-engineering comparison.
type E4Result struct {
	Selective baseline.TEResult
	Naive     baseline.TEResult
	// ViolatorSweep holds selective-exposure relief times at increasing
	// TTL-violator fractions (the client behaviour that degrades knob A).
	ViolatorSweep []E4SweepRow
}

// E4SweepRow is one violator-fraction point.
type E4SweepRow struct {
	ReliefSeconds float64
}

// RunE4 compares the paper's selective VIP exposure (knob A) against the
// naive VIP re-advertisement baseline on an overloaded access link:
// relief time, route updates, and where the load ends up — plus a sweep
// showing how TTL-violating clients erode knob A's speed advantage.
func RunE4(o Options) (*metrics.Table, *E4Result, error) {
	cfg := baseline.DefaultTEConfig()
	cfg.Seed = o.Seed
	if !o.Full {
		cfg.WarmupSec = 300
		cfg.HorizonSec = 1800
	}
	sel := baseline.RunSelectiveExposureTE(cfg)
	naive := baseline.RunNaiveReadvertTE(cfg)

	tb := metrics.NewTable("E4 — access-link relief: selective exposure vs naive re-advertisement",
		"strategy", "relief s", "route updates", "final hot util", "final cold util")
	for _, r := range []baseline.TEResult{sel, naive} {
		tb.AddRow(r.Strategy, r.ReliefTime, r.RouteUpdates, r.FinalHotUtil, r.FinalColdUtil)
	}
	res := &E4Result{Selective: sel, Naive: naive}
	for _, frac := range []float64{0, 0.1, 0.3} {
		c := cfg
		c.ViolatorFraction = frac
		r := baseline.RunSelectiveExposureTE(c)
		res.ViolatorSweep = append(res.ViolatorSweep, E4SweepRow{ReliefSeconds: r.ReliefTime})
		// Sweep rows reuse the strategy column for the label.
		tb.AddRow(fmt.Sprintf("selective @%g violators", frac),
			r.ReliefTime, r.RouteUpdates, r.FinalHotUtil, r.FinalColdUtil)
	}
	return tb, res, nil
}

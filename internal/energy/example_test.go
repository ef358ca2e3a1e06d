package energy_test

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/energy"
)

// Consolidation: a nearly idle pod sheds servers; load brings them back.
func Example() {
	topo := core.SmallTopology()
	topo.Pods = 1
	p, err := core.NewPlatform(topo, core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	app, err := p.OnboardApp("site", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		2, core.Demand{CPU: 2, Mbps: 50})
	if err != nil {
		panic(err)
	}
	meter := energy.NewMeter(p)
	fmt.Printf("idle draw, all 8 servers on: %.0f W\n", meter.CurrentWatts())

	cons := energy.NewConsolidator(p)
	for i := 0; i < 10; i++ {
		cons.Step()
	}
	fmt.Printf("after consolidation: %d servers off, %.0f W\n", cons.PoweredOff(), meter.CurrentWatts())

	// Demand surges: servers power back on.
	p.SetAppDemand(app.ID, core.Demand{CPU: 14, Mbps: 100})
	cons.Step()
	fmt.Printf("under load: power-ons = %d\n", cons.PowerOns)
	// Output:
	// idle draw, all 8 servers on: 1238 W
	// after consolidation: 7 servers off, 188 W
	// under load: power-ons = 1
}

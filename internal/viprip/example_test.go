package viprip_test

import (
	"fmt"

	"megadc/internal/lbswitch"
	"megadc/internal/sim"
	"megadc/internal/viprip"
)

// The serialized VIP/RIP manager: one configuration pipeline serves
// queued reconfigurations highest priority first, each taking effect
// when its service time elapses.
func Example() {
	fab := lbswitch.NewFabric()
	for i := 0; i < 2; i++ {
		fab.AddSwitch(lbswitch.CatalystCSM())
	}
	vips, _ := viprip.NewIPPool("100.64.0.0", 1024)
	rips, _ := viprip.NewIPPool("10.0.0.0", 1024)
	mgr := viprip.NewManager(fab, vips, rips, viprip.Blend)
	// VIP and RIP adds take effect at once; the RIP lands on the
	// app's VIP.
	vip, sw, _ := mgr.AddVIP(1)
	for _, w := range []float64{1, 3} {
		rip, _ := mgr.AllocRIP()
		mgr.AddRIP(1, rip, w, "")
	}
	fmt.Printf("VIP %s on switch %d\n", vip, sw)

	eng := sim.New(1)
	mgr.StartSerialized(eng, 3) // each reconfiguration takes 3 s
	for _, r := range []*viprip.Request{
		{Op: viprip.OpAdjustWeights, Priority: viprip.PriorityLow, Weights: []float64{2, 2}}, // starts at once
		{Op: viprip.OpAdjustWeights, Priority: viprip.PriorityLow, Weights: []float64{3, 1}},
		{Op: viprip.OpTransferVIP, Priority: viprip.PriorityHigh, Dst: 1}, // overtakes the second reweight
	} {
		r.App, r.VIP = 1, vip
		r.OnDone = func(r *viprip.Request) {
			home, _ := fab.HomeOf(vip)
			_, w, _ := fab.Switch(home).Weights(vip)
			fmt.Printf("t=%.0f: VIP on switch %d, RIP weights %v\n", eng.Now(), home, w)
		}
		mgr.Submit(r)
	}
	eng.Run()
	// Output:
	// VIP 100.64.0.0 on switch 0
	// t=3: VIP on switch 0, RIP weights [2 2]
	// t=6: VIP on switch 1, RIP weights [2 2]
	// t=9: VIP on switch 1, RIP weights [3 1]
}

// The paper's Section V-A switch-count arithmetic.
func ExampleMinSwitchCount() {
	limits := lbswitch.CatalystCSM()
	fmt.Println(viprip.MinSwitchCount(300_000, 2, 0, limits))
	fmt.Println(viprip.MinSwitchCount(300_000, 3, 20, limits))
	// Output:
	// 150
	// 375
}

package viprip_test

import (
	"fmt"

	"megadc/internal/lbswitch"
	"megadc/internal/sim"
	"megadc/internal/viprip"
)

// The serialized VIP/RIP manager: one configuration pipeline serves
// queued requests highest priority first, each VIP landing on an
// underloaded switch.
func Example() {
	fab := lbswitch.NewFabric()
	for i := 0; i < 2; i++ {
		fab.AddSwitch(lbswitch.CatalystCSM())
	}
	vips, _ := viprip.NewIPPool("100.64.0.0", 1024)
	rips, _ := viprip.NewIPPool("10.0.0.0", 1024)
	mgr := viprip.NewManager(fab, vips, rips, viprip.Blend)
	eng := sim.New(1)
	mgr.StartSerialized(eng, 3) // each reconfiguration takes 3 s

	for _, r := range []*viprip.Request{
		{Op: viprip.OpAddVIP, App: 1, Priority: viprip.PriorityLow}, // starts at once
		{Op: viprip.OpAddVIP, App: 2, Priority: viprip.PriorityLow},
		{Op: viprip.OpAddVIP, App: 3, Priority: viprip.PriorityHigh}, // overtakes app 2
	} {
		r.OnDone = func(r *viprip.Request) {
			fmt.Printf("t=%.0f app %d: VIP %s on switch %d\n", eng.Now(), r.App, r.Result.VIP, r.Result.Switch)
		}
		mgr.Submit(r)
	}
	eng.Run()

	rip, _ := mgr.AllocRIP()
	vip, sw, _ := mgr.AddRIP(2, rip, 1, "")
	fmt.Printf("RIP %s configured under app 2's VIP %s on switch %d\n", rip, vip, sw)
	// Output:
	// t=3 app 1: VIP 100.64.0.0 on switch 0
	// t=6 app 3: VIP 100.64.0.1 on switch 1
	// t=9 app 2: VIP 100.64.0.2 on switch 0
	// RIP 10.0.0.0 configured under app 2's VIP 100.64.0.2 on switch 0
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

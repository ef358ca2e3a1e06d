package netmodel_test

import (
	"fmt"

	"megadc/internal/netmodel"
)

// Route advertisement with AS-path padding: a padded route gives
// reachability as a backup but attracts no traffic.
func Example() {
	n := netmodel.New()
	ar := n.AddAccessRouter("isp-a")
	br := n.AddBorderRouter()
	l1, _ := n.AddLink(ar.ID, br.ID, 1000, 1)
	l2, _ := n.AddLink(ar.ID, br.ID, 1000, 1)

	n.Advertise("vip-1", l1.ID, false)
	n.Advertise("vip-1", l2.ID, true) // padded backup: reachability, no traffic
	n.SetVIPTraffic("vip-1", 600)
	fmt.Printf("primary %.0f Mbps, padded backup %.0f Mbps\n", l1.LoadMbps(), l2.LoadMbps())
	// Output:
	// primary 600 Mbps, padded backup 0 Mbps
}

// The hose-model fabric: admissibility is per-host, nothing else.
func ExampleHoseFabric() {
	h := netmodel.NewHoseFabric(1000)
	h.Offer(netmodel.Flow{Src: 1, Dst: 2, Mbps: 700})
	h.Offer(netmodel.Flow{Src: 3, Dst: 2, Mbps: 400})
	ok, bad := h.Admissible()
	fmt.Printf("admissible: %v (host %d over its hose)\n", ok, bad[0])
	// Output:
	// admissible: false (host 2 over its hose)
}

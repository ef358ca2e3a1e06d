// Package netmodel models the access network of the mega data center:
// ISP access routers, the access links that connect them to border
// routers, route advertisement state per VIP (including the AS-path-
// padded "backup" advertisements the paper's naive traffic-engineering
// baseline relies on), and a hose-model abstraction of the modern
// internal L2/L3 fabric (VL2 / fat-tree / PortLand) whose full-bisection
// guarantee is what lets the paper place LB switches at the border.
package netmodel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"megadc/internal/health"
)

// Identifier types for access-network elements.
type (
	// AccessRouterID identifies an ISP's access router.
	AccessRouterID int
	// BorderRouterID identifies a data-center border router.
	BorderRouterID int
	// LinkID identifies one access link (AR ↔ border router).
	LinkID int
)

// VIPAddr is a virtual IP address as seen by the routing system. It is
// deliberately a separate type from lbswitch.VIP only in name — both are
// strings — so that this package does not depend on lbswitch.
type VIPAddr = string

// AccessRouter belongs to one ISP from which the DC buys connectivity.
type AccessRouter struct {
	ID  AccessRouterID
	ISP string
}

// BorderRouter is a data-center border router. All border routers connect
// to all LB switches (through a thin L2 layer), so the model does not
// track border-router↔switch links individually.
type BorderRouter struct {
	ID BorderRouterID
}

// Link is an access link between an access router and a border router,
// with finite capacity and a per-Mbps usage cost (the paper motivates
// traffic control "according to the business requirements, e.g.,
// different link usage costs").
type Link struct {
	ID           LinkID
	Router       AccessRouterID
	Border       BorderRouterID
	CapacityMbps float64
	CostPerMbps  float64

	// Health tracks the failure/repair lifecycle; traffic routed over a
	// non-serving link is dropped until the route is withdrawn or the
	// link repaired.
	Health health.State

	// Per-VIP traffic shares currently routed over this link, with the
	// key set kept sorted so the total load is always the same canonical
	// sum regardless of the order shares were applied in. A running
	// add/subtract accumulator would drift by ULPs depending on update
	// history, which would break the bit-for-bit equivalence between
	// incremental and full demand propagation.
	shares    map[VIPAddr]float64
	shareKeys []VIPAddr
	loadSum   float64
	sumValid  bool
}

// Serving reports whether the link is healthy enough to carry traffic.
func (l *Link) Serving() bool { return l.Health.Serving() }

// LoadMbps returns the current offered load on the link: the sum of the
// per-VIP shares in sorted VIP order (cached until a share changes).
func (l *Link) LoadMbps() float64 {
	if !l.sumValid {
		var sum float64
		for _, vip := range l.shareKeys {
			sum += l.shares[vip]
		}
		l.loadSum = sum
		l.sumValid = true
	}
	return l.loadSum
}

func (l *Link) setShare(vip VIPAddr, share float64) {
	if _, ok := l.shares[vip]; !ok {
		i, _ := slices.BinarySearch(l.shareKeys, vip)
		l.shareKeys = append(l.shareKeys, "")
		copy(l.shareKeys[i+1:], l.shareKeys[i:])
		l.shareKeys[i] = vip
	}
	l.shares[vip] = share
	l.sumValid = false
}

func (l *Link) clearShare(vip VIPAddr) {
	if _, ok := l.shares[vip]; !ok {
		return
	}
	delete(l.shares, vip)
	if i, found := slices.BinarySearch(l.shareKeys, vip); found {
		l.shareKeys = append(l.shareKeys[:i], l.shareKeys[i+1:]...)
	}
	l.sumValid = false
}

// Utilization returns load/capacity; above 1 means overloaded.
func (l *Link) Utilization() float64 {
	if l.CapacityMbps <= 0 {
		return 0
	}
	return l.LoadMbps() / l.CapacityMbps
}

// advertisement is one VIP route at one link.
type advertisement struct {
	link   LinkID
	padded bool // AS-path padded: kept as backup, attracts no new traffic
}

// Network is the access-connection layer state.
type Network struct {
	routers map[AccessRouterID]*AccessRouter
	borders map[BorderRouterID]*BorderRouter
	links   map[LinkID]*Link
	order   []LinkID

	ads map[VIPAddr][]advertisement

	// RouteUpdates counts BGP route updates emitted towards the ISPs
	// (each advertise, withdraw, or padding change is one update). The
	// paper's selective-VIP-exposure knob exists precisely to keep this
	// number low; E4 reports it.
	RouteUpdates int64

	vipTraffic map[VIPAddr]float64
	applied    map[VIPAddr][]LinkID // the links each VIP's traffic was last spread over

	// OnRouteChange, when set, is called after any advertisement change
	// for a VIP (advertise, withdraw, padding flip). The platform uses it
	// to mark the VIP's owner dirty for incremental demand propagation.
	OnRouteChange func(vip VIPAddr)
}

// Errors returned by network operations.
var (
	ErrUnknownLink = errors.New("netmodel: unknown link")
	ErrNoRoute     = errors.New("netmodel: VIP has no active route")
	ErrDupAd       = errors.New("netmodel: VIP already advertised on link")
)

// New returns an empty access network.
func New() *Network {
	return &Network{
		routers:    make(map[AccessRouterID]*AccessRouter),
		borders:    make(map[BorderRouterID]*BorderRouter),
		links:      make(map[LinkID]*Link),
		ads:        make(map[VIPAddr][]advertisement),
		vipTraffic: make(map[VIPAddr]float64),
		applied:    make(map[VIPAddr][]LinkID),
	}
}

// AddAccessRouter registers an access router owned by isp.
func (n *Network) AddAccessRouter(isp string) *AccessRouter {
	r := &AccessRouter{ID: AccessRouterID(len(n.routers)), ISP: isp}
	n.routers[r.ID] = r
	return r
}

// AddBorderRouter registers a border router.
func (n *Network) AddBorderRouter() *BorderRouter {
	b := &BorderRouter{ID: BorderRouterID(len(n.borders))}
	n.borders[b.ID] = b
	return b
}

// AddLink creates an access link between ar and br.
func (n *Network) AddLink(ar AccessRouterID, br BorderRouterID, capacityMbps, costPerMbps float64) (*Link, error) {
	if _, ok := n.routers[ar]; !ok {
		return nil, fmt.Errorf("netmodel: unknown access router %d", ar)
	}
	if _, ok := n.borders[br]; !ok {
		return nil, fmt.Errorf("netmodel: unknown border router %d", br)
	}
	if capacityMbps <= 0 {
		return nil, fmt.Errorf("netmodel: non-positive capacity %v", capacityMbps)
	}
	l := &Link{ID: LinkID(len(n.links)), Router: ar, Border: br, CapacityMbps: capacityMbps, CostPerMbps: costPerMbps,
		shares: make(map[VIPAddr]float64)}
	n.links[l.ID] = l
	n.order = append(n.order, l.ID)
	return l, nil
}

// Link returns the link with the given ID, or nil.
func (n *Network) Link(id LinkID) *Link { return n.links[id] }

// Links returns all links in creation order.
func (n *Network) Links() []*Link {
	out := make([]*Link, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.links[id])
	}
	return out
}

// Router returns the access router with the given ID, or nil.
func (n *Network) Router(id AccessRouterID) *AccessRouter { return n.routers[id] }

// NumRouters returns the number of access routers.
func (n *Network) NumRouters() int { return len(n.routers) }

// NumBorders returns the number of border routers.
func (n *Network) NumBorders() int { return len(n.borders) }

// Advertise announces vip over the given link. If padded is true the
// route is AS-path padded: it provides reachability as a backup but
// attracts no new traffic.
func (n *Network) Advertise(vip VIPAddr, link LinkID, padded bool) error {
	if _, ok := n.links[link]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownLink, link)
	}
	for _, ad := range n.ads[vip] {
		if ad.link == link {
			return fmt.Errorf("%w: %s on %d", ErrDupAd, vip, link)
		}
	}
	n.ads[vip] = append(n.ads[vip], advertisement{link: link, padded: padded})
	n.RouteUpdates++
	n.redistribute(vip)
	if n.OnRouteChange != nil {
		n.OnRouteChange(vip)
	}
	return nil
}

// Withdraw removes vip's route from the given link.
func (n *Network) Withdraw(vip VIPAddr, link LinkID) error {
	ads := n.ads[vip]
	for i, ad := range ads {
		if ad.link == link {
			n.ads[vip] = append(ads[:i], ads[i+1:]...)
			if len(n.ads[vip]) == 0 {
				delete(n.ads, vip)
			}
			n.RouteUpdates++
			n.redistribute(vip)
			if n.OnRouteChange != nil {
				n.OnRouteChange(vip)
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %s not on link %d", ErrNoRoute, vip, link)
}

// ActiveLinks returns the links carrying vip (unpadded advertisements),
// sorted by LinkID.
func (n *Network) ActiveLinks(vip VIPAddr) []LinkID {
	var out []LinkID
	for _, ad := range n.ads[vip] {
		if !ad.padded {
			out = append(out, ad.link)
		}
	}
	slices.Sort(out)
	return out
}

// RouteCounts returns how many active (unpadded) routes vip has and how
// many of them terminate on serving links, without allocating — the
// reachability inputs the demand-propagation hot path needs.
func (n *Network) RouteCounts(vip VIPAddr) (active, serving int) {
	for _, ad := range n.ads[vip] {
		if ad.padded {
			continue
		}
		active++
		if l := n.links[ad.link]; l != nil && l.Serving() {
			serving++
		}
	}
	return active, serving
}

// AllLinks returns every link vip is advertised on, padded or not.
func (n *Network) AllLinks(vip VIPAddr) []LinkID {
	var out []LinkID
	for _, ad := range n.ads[vip] {
		out = append(out, ad.link)
	}
	slices.Sort(out)
	return out
}

// SetVIPTraffic sets the external traffic attributed to vip in Mbps. The
// traffic is carried by vip's active links, split equally (external BGP
// splits coarse-grained; the paper controls balance at the granularity of
// whole VIPs via DNS, not per-link ratios).
func (n *Network) SetVIPTraffic(vip VIPAddr, mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("netmodel: negative traffic %v", mbps)
	}
	n.vipTraffic[vip] = mbps
	if mbps == 0 {
		delete(n.vipTraffic, vip)
	}
	n.redistribute(vip)
	return nil
}

// VIPTraffic returns the external traffic attributed to vip.
func (n *Network) VIPTraffic(vip VIPAddr) float64 { return n.vipTraffic[vip] }

// redistribute incrementally updates link loads for one VIP: it removes
// the VIP's previous contribution and applies the contribution implied
// by the current traffic and active-link set. Incremental updates keep
// SetVIPTraffic O(links-per-VIP) so experiments can carry tens of
// thousands of VIPs. The previous link slice is reused so steady-state
// traffic updates do not allocate.
func (n *Network) redistribute(vip VIPAddr) {
	prev := n.applied[vip]
	for _, id := range prev {
		if l := n.links[id]; l != nil {
			l.clearShare(vip)
		}
	}
	links := prev[:0]
	for _, ad := range n.ads[vip] {
		if !ad.padded {
			links = append(links, ad.link)
		}
	}
	slices.Sort(links)
	t := n.vipTraffic[vip]
	if t == 0 || len(links) == 0 {
		if cap(links) == 0 {
			delete(n.applied, vip)
		} else {
			n.applied[vip] = links
		}
		return
	}
	share := t / float64(len(links))
	for _, id := range links {
		n.links[id].setShare(vip, share)
	}
	n.applied[vip] = links
}

// LinkLoads returns per-link load in creation order.
func (n *Network) LinkLoads() []float64 {
	out := make([]float64, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.links[id].LoadMbps())
	}
	return out
}

// LinkUtilizations returns per-link utilization in creation order.
func (n *Network) LinkUtilizations() []float64 {
	out := make([]float64, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.links[id].Utilization())
	}
	return out
}

// OverloadedLinks returns IDs of links with utilization above threshold,
// sorted by descending utilization.
func (n *Network) OverloadedLinks(threshold float64) []LinkID {
	var out []LinkID
	for _, id := range n.order {
		if n.links[id].Utilization() > threshold {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, func(a, b LinkID) int {
		ua, ub := n.links[a].Utilization(), n.links[b].Utilization()
		if ua != ub {
			if ua > ub {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	return out
}

// TotalCost returns the sum over links of load × cost-per-Mbps.
func (n *Network) TotalCost() float64 {
	var sum float64
	for _, id := range n.order {
		l := n.links[id]
		sum += l.LoadMbps() * l.CostPerMbps
	}
	return sum
}

// VIPsOnLink returns the VIPs actively carried by the link, sorted.
func (n *Network) VIPsOnLink(link LinkID) []VIPAddr {
	var out []VIPAddr
	for vip := range n.ads {
		for _, id := range n.ActiveLinks(vip) {
			if id == link {
				out = append(out, vip)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// CheckInvariants verifies that link loads equal the per-VIP traffic
// shares and that no advertisement references a missing link.
func (n *Network) CheckInvariants() error {
	// Sorted VIP order: the expected per-link loads are float sums, so
	// the accumulation order must not depend on map iteration.
	vips := make([]VIPAddr, 0, len(n.ads))
	for vip := range n.ads {
		vips = append(vips, vip)
	}
	slices.Sort(vips)
	want := make(map[LinkID]float64)
	for _, vip := range vips {
		ads := n.ads[vip]
		for _, ad := range ads {
			if _, ok := n.links[ad.link]; !ok {
				return fmt.Errorf("vip %s advertised on missing link %d", vip, ad.link)
			}
		}
		t := n.vipTraffic[vip]
		active := n.ActiveLinks(vip)
		if t > 0 && len(active) > 0 {
			share := t / float64(len(active))
			for _, id := range active {
				want[id] += share
			}
		}
	}
	for _, id := range n.order {
		l := n.links[id]
		d := l.LoadMbps() - want[id]
		if d < 0 {
			d = -d
		}
		if d > 1e-6*(1+want[id]) {
			return fmt.Errorf("link %d load %v != expected %v", id, l.LoadMbps(), want[id])
		}
	}
	return nil
}

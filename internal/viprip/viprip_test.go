package viprip

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
	"megadc/internal/policy"
	"megadc/internal/sim"
	"megadc/internal/trace"
)

func TestIPPoolAllocFree(t *testing.T) {
	p, err := NewIPPool("10.0.0.0", 3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	c, _ := p.Alloc()
	if a != "10.0.0.0" || b != "10.0.0.1" || c != "10.0.0.2" {
		t.Errorf("allocs = %s %s %s", a, b, c)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("4th alloc err = %v", err)
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(b); err == nil {
		t.Error("double free accepted")
	}
	d, _ := p.Alloc()
	if d != b {
		t.Errorf("recycled = %s, want %s", d, b)
	}
	if p.inUse.Count() != 3 || p.size != 3 {
		t.Errorf("in use/size = %d/%d", p.inUse.Count(), p.size)
	}
}

func TestIPPoolCrossOctet(t *testing.T) {
	p, _ := NewIPPool("10.0.0.254", 4)
	var got []string
	for i := 0; i < 4; i++ {
		s, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	want := []string{"10.0.0.254", "10.0.0.255", "10.0.1.0", "10.0.1.1"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("alloc %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestIPPoolValidation(t *testing.T) {
	if _, err := NewIPPool("not-an-ip", 5); err == nil {
		t.Error("bad base accepted")
	}
	if _, err := NewIPPool("300.0.0.1", 5); err == nil {
		t.Error("octet > 255 accepted")
	}
	if _, err := NewIPPool("10.0.0.0", 0); err == nil {
		t.Error("zero size accepted")
	}
	p, _ := NewIPPool("10.0.0.0", 5)
	if err := p.Free("junk"); err == nil {
		t.Error("freeing junk accepted")
	}
	if err := p.Free("10.0.0.4"); err == nil {
		t.Error("freeing never-allocated accepted")
	}
}

// Property: the pool never hands out the same address twice while it is
// in use.
func TestPropertyIPPoolUnique(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewIPPool("192.168.0.0", 32)
		if err != nil {
			return false
		}
		live := make(map[string]bool)
		var addrs []string
		for _, alloc := range ops {
			if alloc {
				a, err := p.Alloc()
				if errors.Is(err, ErrPoolExhausted) {
					continue
				}
				if err != nil || live[a] {
					return false
				}
				live[a] = true
				addrs = append(addrs, a)
			} else if len(addrs) > 0 {
				i := rng.Intn(len(addrs))
				if err := p.Free(addrs[i]); err != nil {
					return false
				}
				delete(live, addrs[i])
				addrs = append(addrs[:i], addrs[i+1:]...)
			}
		}
		return p.inUse.Count() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func newTestManager(t *testing.T, nSwitches int, policy Policy) *Manager {
	t.Helper()
	fab := lbswitch.NewFabric()
	for i := 0; i < nSwitches; i++ {
		fab.AddSwitch(lbswitch.Limits{MaxVIPs: 4, MaxRIPs: 8, ThroughputMbps: 100, MaxConns: 100, MaxPPS: 1000})
	}
	vp, err := NewIPPool("198.51.100.0", 64)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewIPPool("10.0.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(fab, vp, rp, policy)
}

// newQueuedManager returns a serialized manager (1 s service time) with
// one VIP carrying one RIP of weight 1, whose pipeline is already busy
// with an unrelated request (app 99), so the requests a test submits
// next wait in the queue together and requestOrder alone decides the
// order they complete in.
func newQueuedManager(t *testing.T, nSwitches int) (*Manager, *sim.Engine, lbswitch.VIP) {
	t.Helper()
	m := newTestManager(t, nSwitches, LeastVIPs)
	vip := placeVIP(t, m, 1)
	eng := sim.New(1)
	m.StartSerialized(eng, 1)
	m.Submit(&Request{Op: OpAdjustWeights, App: 99, VIP: vip, Weights: []float64{1}})
	return m, eng, vip
}

// placeVIP adds a VIP of app with one RIP of weight 1.
func placeVIP(t *testing.T, m *Manager, app cluster.AppID) lbswitch.VIP {
	t.Helper()
	vip, _, err := m.AddVIP(app)
	if err != nil {
		t.Fatal(err)
	}
	rip, err := m.AllocRIP()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AddRIP(app, rip, 1, vip); err != nil {
		t.Fatal(err)
	}
	return vip
}

// completions records requests in the order the pipeline finishes them.
type completions []*Request

// submit sets each request's OnDone to record it, then submits it.
func (c *completions) submit(m *Manager, reqs ...*Request) {
	for _, r := range reqs {
		r.OnDone = func(r *Request) { *c = append(*c, r) }
		m.Submit(r)
	}
}

func TestAddVIPLeastVIPs(t *testing.T) {
	m := newTestManager(t, 3, LeastVIPs)
	homes := make(map[lbswitch.SwitchID]int)
	for i := 0; i < 6; i++ {
		_, sw, err := m.AddVIP(1)
		if err != nil {
			t.Fatal(err)
		}
		homes[sw]++
	}
	// Least-VIPs policy spreads 6 VIPs as 2/2/2.
	for id, n := range homes {
		if n != 2 {
			t.Errorf("switch %d got %d VIPs, want 2 (homes=%v)", id, n, homes)
		}
	}
	if err := m.Fabric().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAddVIPLeastLoad(t *testing.T) {
	m := newTestManager(t, 2, LeastLoad)
	v0, sw0, err := m.AddVIP(1)
	if err != nil {
		t.Fatal(err)
	}
	// Load up switch sw0; the next VIP must land elsewhere.
	m.Fabric().Switch(sw0).SetVIPLoad(v0, 90)
	_, sw1, err := m.AddVIP(1)
	if err != nil {
		t.Fatal(err)
	}
	if sw1 == sw0 {
		t.Error("least-load placed VIP on the loaded switch")
	}
}

func TestAddVIPExhaustion(t *testing.T) {
	m := newTestManager(t, 1, LeastVIPs)
	for i := 0; i < 4; i++ {
		if _, _, err := m.AddVIP(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.AddVIP(1); !errors.Is(err, ErrNoSwitch) {
		t.Errorf("err = %v, want ErrNoSwitch", err)
	}
}

func TestAddRIPPrefersLeastPressuredVIPSwitch(t *testing.T) {
	m := newTestManager(t, 2, LeastVIPs)
	v1, s1, _ := m.AddVIP(1)
	v2, s2, _ := m.AddVIP(1)
	if s1 == s2 {
		t.Fatal("test setup expects VIPs on distinct switches")
	}
	// Pressure switch s1 with load.
	m.Fabric().Switch(s1).SetVIPLoad(v1, 90)
	rip, _ := m.AllocRIP()
	vip, sw, err := m.AddRIP(1, rip, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if sw != s2 || vip != v2 {
		t.Errorf("RIP went to switch %d VIP %s; want unloaded switch %d VIP %s", sw, vip, s2, v2)
	}
}

func TestAddRIPPreferredVIP(t *testing.T) {
	m := newTestManager(t, 2, LeastVIPs)
	v1, s1, _ := m.AddVIP(1)
	m.AddVIP(1)
	rip, _ := m.AllocRIP()
	vip, sw, err := m.AddRIP(1, rip, 2, v1)
	if err != nil {
		t.Fatal(err)
	}
	if vip != v1 || sw != s1 {
		t.Errorf("preferred ignored: %s on %d", vip, sw)
	}
	if _, _, err := m.AddRIP(1, rip, 1, "203.0.113.77"); err == nil {
		t.Error("unknown preferred VIP accepted")
	}
}

func TestAddRIPNoVIPs(t *testing.T) {
	m := newTestManager(t, 1, LeastVIPs)
	rip, _ := m.AllocRIP()
	if _, _, err := m.AddRIP(5, rip, 1, ""); !errors.Is(err, ErrNoVIPForApp) {
		t.Errorf("err = %v, want ErrNoVIPForApp", err)
	}
}

func TestDelRIP(t *testing.T) {
	m := newTestManager(t, 1, LeastVIPs)
	m.AddVIP(1)
	rip, _ := m.AllocRIP()
	if _, _, err := m.AddRIP(1, rip, 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := m.DelRIP(1, rip); err != nil {
		t.Fatal(err)
	}
	if err := m.DelRIP(1, rip); err == nil {
		t.Error("double DelRIP accepted")
	}
	if err := m.FreeRIP(rip); err != nil {
		t.Errorf("FreeRIP: %v", err)
	}
}

func TestAdjustWeightsPreservesTotal(t *testing.T) {
	m := newTestManager(t, 1, LeastVIPs)
	vip, sw, _ := m.AddVIP(1)
	r1, _ := m.AllocRIP()
	r2, _ := m.AllocRIP()
	m.AddRIP(1, r1, 1, vip)
	m.AddRIP(1, r2, 3, vip)
	// Valid: total stays 4.
	if err := m.AdjustWeights(vip, []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	_, ws, _ := m.Fabric().Switch(sw).Weights(vip)
	if ws[0] != 2 || ws[1] != 2 {
		t.Errorf("weights = %v", ws)
	}
	// Invalid: total changes.
	if err := m.AdjustWeights(vip, []float64{3, 2}); err == nil {
		t.Error("total-changing adjustment accepted")
	}
	// Invalid: wrong arity.
	if err := m.AdjustWeights(vip, []float64{4}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := m.AdjustWeights("203.0.113.88", []float64{1}); err == nil {
		t.Error("unknown VIP accepted")
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	m, eng, vip := newQueuedManager(t, 3)
	low := reweight(vip, PriorityLow)
	high := reweight(vip, PriorityHigh)
	norm := reweight(vip, PriorityNormal)
	var done completions
	done.submit(m, low, high, norm)
	if m.Pending() != 4 { // three queued behind the one in service
		t.Errorf("Pending = %d", m.Pending())
	}
	eng.Run()
	if len(done) != 3 || done[0] != high || done[1] != norm || done[2] != low {
		t.Fatalf("execution order wrong: %v", done)
	}
	for _, r := range done {
		if !r.Done || r.Err != nil {
			t.Errorf("request %+v not done cleanly", r)
		}
	}
	if m.Pending() != 0 || m.Processed != 4 {
		t.Errorf("Pending/Processed = %d/%d", m.Pending(), m.Processed)
	}
}

func TestQueueFIFOWithinPriority(t *testing.T) {
	m, eng, vip := newQueuedManager(t, 3)
	var reqs []*Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, reweight(vip, PriorityNormal))
	}
	var done completions
	done.submit(m, reqs...)
	eng.Run()
	if len(done) != len(reqs) {
		t.Fatalf("completed %d of %d", len(done), len(reqs))
	}
	for i := range reqs {
		if done[i] != reqs[i] {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
}

// Both queued ops take effect when they complete: the weight shift
// lands, and a forced transfer moves the VIP and reports the
// connections it broke.
func TestQueueOps(t *testing.T) {
	m, eng, _ := newQueuedManager(t, 2)
	f := m.Fabric()
	vip, home, _ := m.AddVIP(1)
	r1, _ := m.AllocRIP()
	r2, _ := m.AllocRIP()
	m.AddRIP(1, r1, 1, vip)
	m.AddRIP(1, r2, 3, vip)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2; i++ {
		if _, _, err := f.Switch(home).OpenConn(vip, rng); err != nil {
			t.Fatal(err)
		}
	}
	var done completions
	done.submit(m,
		&Request{Op: OpAdjustWeights, App: 1, VIP: vip, Weights: []float64{2, 2}},
		&Request{Op: OpTransferVIP, App: 1, VIP: vip, Dst: 1 - home, Force: true})
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("completed %d of 2", len(done))
	}
	for _, r := range done {
		if r.Err != nil {
			t.Errorf("op %d err: %v", r.Op, r.Err)
		}
	}
	if done[1].Broken != 2 {
		t.Errorf("forced transfer broke %d connections, want 2", done[1].Broken)
	}
	if h, _ := f.HomeOf(vip); h != 1-home {
		t.Errorf("VIP home = %d, want %d", h, 1-home)
	}
	if _, ws, _ := f.Switch(1 - home).Weights(vip); len(ws) != 2 || ws[0] != 2 || ws[1] != 2 {
		t.Errorf("weights after transfer = %v, want [2 2]", ws)
	}
	bad := &Request{Op: Op(99)}
	m.Submit(bad)
	eng.Run()
	if bad.Err == nil {
		t.Error("unknown op accepted")
	}
}

func TestMinSwitchCountPaperNumbers(t *testing.T) {
	limits := lbswitch.CatalystCSM()
	// Section III-B: 300K apps × 2 VIPs / 4000 = 150 switches.
	if got := MinSwitchCount(300_000, 2, 0, limits); got != 150 {
		t.Errorf("2-VIP count = %d, want 150", got)
	}
	// Section V-A: max(300K·3/4000, 300K·20/16000) = max(225, 375) = 375.
	if got := MinSwitchCount(300_000, 3, 20, limits); got != 375 {
		t.Errorf("3-VIP/20-RIP count = %d, want 375", got)
	}
	if got := MinSwitchCount(10, 1, 1, lbswitch.Limits{}); got != 0 {
		t.Errorf("zero limits count = %d", got)
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		LeastVIPs: "least-vips", LeastLoad: "least-load",
		Blend: "blend", Policy(9): "Policy(9)",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

// Property: however many AddVIP/AddRIP requests are submitted, no switch
// ever exceeds its limits, under every score, greedy or first-fit.
func TestPropertyManagerRespectsLimits(t *testing.T) {
	f := func(nVIPs, nRIPs uint8, policyRaw uint8) bool {
		fab := lbswitch.NewFabric()
		for i := 0; i < 3; i++ {
			fab.AddSwitch(lbswitch.Limits{MaxVIPs: 3, MaxRIPs: 6, ThroughputMbps: 100, MaxConns: 10, MaxPPS: 100})
		}
		vp, _ := NewIPPool("198.51.100.0", 256)
		rp, _ := NewIPPool("10.0.0.0", 256)
		m := NewManager(fab, vp, rp, Policy(policyRaw%3))
		if policyRaw&0x80 != 0 {
			m.SetPlacement(policy.FirstFit{})
		}
		for i := 0; i < int(nVIPs%24); i++ {
			m.AddVIP(1)
		}
		for i := 0; i < int(nRIPs%40); i++ {
			rip, err := m.AllocRIP()
			if err != nil {
				break
			}
			m.AddRIP(1, rip, 1, "")
		}
		return fab.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}

// TestQueueInterleavedExactOrder is the regression test for the strict
// queue contract: across interleaved submissions the completion order is
// priority-descending with FIFO tie-breaking, exactly — not merely "highs
// before lows". (sort.Slice's instability could historically reorder
// equal-priority requests once the queue grew past the small-slice
// threshold; requestOrder's seq tiebreak makes the order total.)
func TestQueueInterleavedExactOrder(t *testing.T) {
	m, eng, vip := newQueuedManager(t, 8)
	prios := []Priority{
		PriorityNormal, PriorityHigh, PriorityLow, PriorityNormal,
		PriorityHigh, PriorityLow, PriorityNormal, PriorityHigh,
		PriorityLow, PriorityNormal, PriorityHigh, PriorityNormal,
	}
	reqs := make([]*Request, len(prios))
	for i, p := range prios {
		reqs[i] = reweight(vip, p)
	}
	var done completions
	done.submit(m, reqs...)
	eng.Run()
	// Expected: all highs in submission order, then normals, then lows.
	var want []*Request
	for _, p := range []Priority{PriorityHigh, PriorityNormal, PriorityLow} {
		for i, r := range reqs {
			if prios[i] == p {
				want = append(want, r)
			}
		}
	}
	if len(done) != len(want) {
		t.Fatalf("len(done) = %d, want %d", len(done), len(want))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion order wrong at %d: got app-prio %v, want %v",
				i, done[i].Priority, want[i].Priority)
		}
	}
}

// TestQueueTraceTransitions asserts a traced request leaves the
// queue→process→done event sequence in the flight recorder.
func TestQueueTraceTransitions(t *testing.T) {
	m, eng, _ := newQueuedManager(t, 2)
	vip := placeVIP(t, m, 7)
	rec := trace.NewRecorder(64)
	m.SetTracer(rec)
	m.Submit(&Request{Op: OpAdjustWeights, App: 7, Priority: PriorityHigh, VIP: vip, Weights: []float64{1}})
	eng.Run()
	var types []trace.Type
	for _, ev := range rec.Events() {
		if ev.Touches(trace.VIP(vip)) {
			types = append(types, ev.Type)
		}
	}
	// The weight-adjustment effect event nests inside the process→done
	// bracket.
	want := []trace.Type{trace.EvReqSubmit, trace.EvReqProcess, trace.EvAdjustWeights, trace.EvReqDone}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, types[i], want[i])
		}
	}
}

// TestAddRIPRejectsBadWeight is the regression test for the NaN-blind
// weight check: `weight <= 0` is false for NaN, so a NaN weight used to
// sail through into the switch tables.
func TestAddRIPRejectsBadWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		m := newTestManager(t, 1, LeastVIPs)
		vip, _, _ := m.AddVIP(1)
		rip, _ := m.AllocRIP()
		if _, _, err := m.AddRIP(1, rip, w, vip); !errors.Is(err, ErrBadWeight) {
			t.Errorf("AddRIP weight %v: err = %v, want ErrBadWeight", w, err)
		}
	}
}

// TestAdjustWeightsRejectsBadWeight checks the up-front vector
// validation: a bad weight anywhere in the vector rejects the whole
// call, and — crucially — leaves every existing weight untouched (the
// old per-RIP loop could fail midway, leaving a partially-applied vector
// that silently changed the VIP's total weight).
func TestAdjustWeightsRejectsBadWeight(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), -2, 0} {
		m := newTestManager(t, 1, LeastVIPs)
		vip, sw, _ := m.AddVIP(1)
		r1, _ := m.AllocRIP()
		r2, _ := m.AllocRIP()
		m.AddRIP(1, r1, 1, vip)
		m.AddRIP(1, r2, 3, vip)
		// The first element alone is valid and, under a partial
		// application, would have been written before the bad second
		// element was noticed.
		if err := m.AdjustWeights(vip, []float64{4 - bad, bad}); !errors.Is(err, ErrBadWeight) {
			t.Fatalf("AdjustWeights with %v: err = %v, want ErrBadWeight", bad, err)
		}
		_, ws, err := m.Fabric().Switch(sw).Weights(vip)
		if err != nil {
			t.Fatal(err)
		}
		if ws[0] != 1 || ws[1] != 3 {
			t.Errorf("weights after rejected adjust = %v, want [1 3] (partial application!)", ws)
		}
	}
}

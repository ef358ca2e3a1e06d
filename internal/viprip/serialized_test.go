package viprip

import (
	"testing"

	"megadc/internal/lbswitch"
	"megadc/internal/sim"
)

// newSerializedManager builds a serialized manager (3 s service time)
// with one VIP of app 1, plus a RIP of weight 1 so weight adjustments
// have something to adjust, on each of its two switches.
func newSerializedManager(t *testing.T) (m *Manager, eng *sim.Engine, vips [2]lbswitch.VIP) {
	t.Helper()
	f := lbswitch.NewFabric()
	f.AddSwitch(lbswitch.CatalystCSM())
	f.AddSwitch(lbswitch.CatalystCSM())
	vp, err := NewIPPool("100.64.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewIPPool("10.0.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	m = NewManager(f, vp, rp, LeastVIPs)
	for i := range vips {
		vips[i] = placeVIP(t, m, 1)
		if home, _ := f.HomeOf(vips[i]); home != lbswitch.SwitchID(i) {
			t.Fatalf("vip %d homed on switch %d, want %d (LeastVIPs alternates)", i, home, i)
		}
	}
	eng = sim.New(1)
	m.StartSerialized(eng, 3)
	return m, eng, vips
}

// reweight is a request that sets vip's single RIP weight to 1 again:
// an AdjustWeights that queues and completes like any other but leaves
// the fabric unchanged.
func reweight(vip lbswitch.VIP, p Priority) *Request {
	return &Request{Op: OpAdjustWeights, App: 1, Priority: p, VIP: vip, Weights: []float64{1}}
}

// Serialized processing: one request at a time, each occupying the
// pipeline for serviceTime, highest priority first regardless of
// submission order.
func TestSerializedPriorityAndTiming(t *testing.T) {
	m, eng, vips := newSerializedManager(t)

	var doneAt []float64
	var doneOrder []Priority
	mk := func(p Priority) *Request {
		r := reweight(vips[0], p)
		r.OnDone = func(r *Request) {
			if r.Err != nil {
				t.Errorf("request failed: %v", r.Err)
			}
			doneAt = append(doneAt, eng.Now())
			doneOrder = append(doneOrder, r.Priority)
		}
		return r
	}
	// Three requests submitted at t=0; low first, to prove reordering.
	eng.At(0, func() {
		m.Submit(mk(PriorityLow))
		m.Submit(mk(PriorityHigh))
		m.Submit(mk(PriorityNormal))
	})
	eng.RunUntil(100)

	// The low request grabbed the idle pipeline at t=0 (nothing else was
	// queued yet); the high and normal ones then wait their turns.
	wantOrder := []Priority{PriorityLow, PriorityHigh, PriorityNormal}
	wantAt := []float64{3, 6, 9}
	if len(doneAt) != 3 {
		t.Fatalf("processed %d requests, want 3", len(doneAt))
	}
	for i := range wantAt {
		if doneOrder[i] != wantOrder[i] || doneAt[i] != wantAt[i] {
			t.Fatalf("completion %d: prio=%v at t=%v, want prio=%v at t=%v",
				i, doneOrder[i], doneAt[i], wantOrder[i], wantAt[i])
		}
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after drain", m.Pending())
	}
}

// A burst while the pipeline is busy accumulates queue wait: the Nth
// same-priority request waits (N-1)×serviceTime.
func TestSerializedQueueWaitAccumulates(t *testing.T) {
	m, eng, vips := newSerializedManager(t)
	var completions []float64
	eng.At(10, func() {
		for i := 0; i < 4; i++ {
			r := reweight(vips[1], PriorityNormal)
			r.OnDone = func(r *Request) { completions = append(completions, eng.Now()) }
			m.Submit(r)
		}
	})
	eng.RunUntil(100)
	want := []float64{13, 16, 19, 22}
	if len(completions) != len(want) {
		t.Fatalf("completions: %v", completions)
	}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("completion %d at t=%v, want %v", i, completions[i], w)
		}
	}
}

// OnDone submitting a follow-up request must not double-occupy the
// pipeline.
func TestSerializedOnDoneResubmit(t *testing.T) {
	m, eng, vips := newSerializedManager(t)
	var finished float64
	eng.At(0, func() {
		r := reweight(vips[0], PriorityNormal)
		r.OnDone = func(r *Request) {
			m.Submit(&Request{Op: OpTransferVIP, App: 1, VIP: r.VIP, Dst: 1,
				OnDone: func(r2 *Request) {
					if r2.Err != nil {
						t.Errorf("follow-up failed: %v", r2.Err)
					}
					finished = eng.Now()
				}})
		}
		m.Submit(r)
	})
	eng.RunUntil(100)
	if finished != 6 {
		t.Fatalf("chained completion at t=%v, want 6", finished)
	}
	if m.Processed != 2 {
		t.Fatalf("processed = %d, want 2", m.Processed)
	}
}

// Without the pump nothing would drain the queue, so a submission to a
// manager that never started it is a bug, not a silent no-op.
func TestSubmitBeforeStartSerializedPanics(t *testing.T) {
	m := newTestManager(t, 1, LeastVIPs)
	defer func() {
		if recover() == nil {
			t.Fatal("Submit before StartSerialized must panic")
		}
	}()
	m.Submit(&Request{Op: OpAdjustWeights, App: 1})
}

// The weight-adjustment and transfer ops work through the pump.
func TestBatchAdjustWeightsAndTransfer(t *testing.T) {
	m, eng, vips := newSerializedManager(t)
	f := m.Fabric()
	vip, home := vips[0], lbswitch.SwitchID(0)
	var out completions
	out.submit(m,
		&Request{Op: OpAdjustWeights, App: 1, Priority: PriorityNormal, VIP: vip, Weights: []float64{1}},
		&Request{Op: OpTransferVIP, App: 1, Priority: PriorityHigh, VIP: vip, Dst: 1 - home})
	eng.Run()
	if len(out) != 2 {
		t.Fatalf("processed %d", len(out))
	}
	for _, r := range out {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", r.Op, r.Err)
		}
	}
	if h, _ := f.HomeOf(vip); h != 1-home {
		t.Fatalf("transfer did not move the VIP: home=%d", h)
	}
}

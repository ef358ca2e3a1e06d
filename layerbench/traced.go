package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/trace"
)

// Layers a timed-phase event is charged to. Order matters: an event
// that moves several layers' counters is charged to the first, the
// layer that started the work (a pod step that sends a bus call is a
// pod step).
const (
	layerPod = iota
	layerGlobal
	layerFaults
	layerVIPRIP
	layerReqArrival
	layerReqComplete
	layerCtrl
	layerOther
	numLayers
)

var layerNames = [numLayers]string{"podmgr", "globalmgr", "faults", "viprip", "requests.arrival", "requests.complete", "ctrlplane", "other"}

// counters are the public per-layer counters the traced pass watches.
type counters struct {
	pod, global, faults, viprip, generated, served, bus int64
}

func (in *instance) counters() counters {
	c := counters{pod: in.podSteps(), global: in.p.Global.Steps, viprip: in.p.VIPRIP.Processed + in.p.VIPRIP.Requeues}
	if f := in.inj; f != nil {
		c.faults = f.Faults() + f.Detections + f.Repairs + f.PodPartitions + f.PartitionHeals + f.FlapEpisodes
	}
	if r := in.req; r != nil {
		st := r.Stats()
		c.generated, c.served = st.Generated, st.Served
	}
	if b := in.p.Ctrl(); b != nil {
		c.bus = b.Sent + b.Casts + b.Delivered + b.Deduped + b.Dropped + b.Duplicates + b.Retries + b.Acks + b.DeadLetters
	}
	return c
}

func classify(a, b counters) int {
	switch {
	case b.pod != a.pod:
		return layerPod
	case b.global != a.global:
		return layerGlobal
	case b.faults != a.faults:
		return layerFaults
	case b.viprip != a.viprip:
		return layerVIPRIP
	case b.generated != a.generated:
		return layerReqArrival
	case b.served != a.served:
		return layerReqComplete
	case b.bus != a.bus:
		return layerCtrl
	}
	return layerOther
}

// span is one timed interval at a layer boundary, in nanoseconds since
// the traced pass began. Parent indexes the enclosing span (-1: none).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// maxSpans bounds the spans kept in memory; the high-frequency layers
// (request arrivals, completions, bus events, observer hooks) fill the
// budget first and further spans are only counted.
const maxSpans = 200_000

// tracer drives the engine one event at a time, charging each event's
// wall time to the layer whose public counters it moved. One tracer
// serves every simulation of a repetition.
type tracer struct {
	in    *instance // the simulation being traced
	epoch time.Time

	steps   [numLayers][]time.Duration
	hook    []time.Duration // observer OnEvent calls
	publish []time.Duration // registry publishes

	steady, full, refresh []time.Duration // probes
	queues                int

	spans   []span
	dropped int
	sim     int // index of the current simulation's span
	cur     int // index of the span of the event in progress
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sim: -1, cur: -1}
}

func (t *tracer) addSpan(name string, start time.Time, d time.Duration, parent int) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, StartNS: s, EndNS: s + d.Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

// attach starts tracing one built simulation: it wraps the recorder's
// OnEvent observer fan-out and the registry publish with timers, opens
// the simulation's span, and returns the step function for advance.
func (t *tracer) attach(in *instance) func() {
	t.in = in
	if rec := in.p.Cfg.Trace; rec != nil && rec.OnEvent != nil {
		inner := rec.OnEvent
		rec.OnEvent = func(e *trace.Event) {
			s := time.Now()
			inner(e)
			d := time.Since(s)
			t.hook = append(t.hook, d)
			t.addSpan("observers.on_event", s, d, t.cur)
		}
	}
	in.publishHook = func(d time.Duration) {
		t.publish = append(t.publish, d)
		t.addSpan("observers.publish", time.Now().Add(-d), d, t.cur)
	}
	t.sim = t.addSpan("sim", time.Now(), 0, -1)
	return func() {
		before := in.counters()
		// Reserve the event's span first so observer hooks fired inside
		// the step can name it as their parent; it is named and closed
		// below once the layer is known.
		t.cur = t.addSpan("", time.Now(), 0, t.sim)
		s := time.Now()
		in.p.Eng.Step()
		d := time.Since(s)
		l := classify(before, in.counters())
		t.steps[l] = append(t.steps[l], d)
		if t.cur >= 0 {
			sp := &t.spans[t.cur]
			sp.Name = layerNames[l]
			sp.StartNS = s.Sub(t.epoch).Nanoseconds()
			sp.EndNS = sp.StartNS + d.Nanoseconds()
		}
		t.cur = -1
	}
}

// detach closes the current simulation's span.
func (t *tracer) detach() {
	if t.sim >= 0 {
		t.spans[t.sim].EndNS = time.Since(t.epoch).Nanoseconds()
	}
	t.sim = -1
}

// probe times explicit calls into the layers after the run: a one-app
// demand change (steady incremental Propagate), a full recompute, and
// a request-capacity refresh. They mutate the platform, so they run
// after the outputs were digested and checked.
func (t *tracer) probe(in *instance) {
	p := in.p
	parent := t.addSpan("probes", time.Now(), 0, -1)
	apps := p.Cluster.NumApps()
	for i := 0; i < 200 && apps > 0; i++ {
		app := cluster.AppID(i * 7919 % apps)
		d := p.AppDemand(app)
		if i%2 == 0 {
			d = core.Demand{CPU: d.CPU * 1.01, Mbps: d.Mbps * 1.01}
		} else {
			d = core.Demand{CPU: d.CPU / 1.01, Mbps: d.Mbps / 1.01}
		}
		s := time.Now()
		p.SetAppDemand(app, d)
		dt := time.Since(s)
		t.steady = append(t.steady, dt)
		t.addSpan("propagate.steady", s, dt, parent)
	}
	for i := 0; i < 5; i++ {
		s := time.Now()
		p.PropagateFull()
		dt := time.Since(s)
		t.full = append(t.full, dt)
		t.addSpan("propagate.full", s, dt, parent)
	}
	if r := in.req; r != nil && r.AttachedQueues() > 0 {
		t.queues = r.AttachedQueues()
		for i := 0; i < 20; i++ {
			s := time.Now()
			r.RefreshCapacity()
			dt := time.Since(s)
			t.refresh = append(t.refresh, dt)
			t.addSpan("requests.refresh", s, dt, parent)
		}
	}
	if parent >= 0 {
		t.spans[parent].EndNS = time.Since(t.epoch).Nanoseconds()
	}
}

// dist is one timing sample, sorted, in the unit it was summarized in.
type dist []float64

func summarize(ds []time.Duration, unit time.Duration) dist {
	xs := make(dist, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	slices.Sort(xs)
	return xs
}

// q reads quantile q by linear interpolation (0 for no samples).
func (xs dist) q(q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// line prints the sample count, the median, the highest standard
// percentile with at least ten samples beyond it, and the maximum.
func (xs dist) line(name, unit string) string {
	tail, tailName := xs.q(0.5), "p50"
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(xs))*(1-p.q) >= 10 {
			tail, tailName = xs.q(p.q), p.name
			break
		}
	}
	return fmt.Sprintf("%-28s n=%-9d p50=%.4g %s  %s=%.4g %s  max=%.4g %s",
		name, len(xs), xs.q(0.5), unit, tailName, tail, unit, xs.q(1), unit)
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// metrics turns the traced pass into its per-layer metrics and the
// human-readable summary lines.
func (t *tracer) metrics() (map[string]float64, []string) {
	m := map[string]float64{}
	var detail []string
	add := func(name string, ds []time.Duration, unit time.Duration, unitName string) dist {
		d := summarize(ds, unit)
		detail = append(detail, d.line(name, unitName))
		return d
	}
	pod := add("podmgr.step", t.steps[layerPod], time.Millisecond, "ms")
	m["podmgr.steps"] = float64(len(pod))
	m["podmgr.step_ms.p50"] = pod.q(0.5)
	m["podmgr.step_ms.p90"] = pod.q(0.9)
	glob := add("globalmgr.step", t.steps[layerGlobal], time.Millisecond, "ms")
	m["globalmgr.steps"] = float64(len(glob))
	m["globalmgr.step_ms.p50"] = glob.q(0.5)
	m["globalmgr.step_ms.max"] = glob.q(1)
	arr := add("requests.arrival", t.steps[layerReqArrival], time.Nanosecond, "ns")
	m["requests.arrival_ns.p50"] = arr.q(0.5)
	m["requests.arrival_ns.p99"] = arr.q(0.99)
	cmp := add("requests.complete", t.steps[layerReqComplete], time.Nanosecond, "ns")
	m["requests.complete_ns.p50"] = cmp.q(0.5)
	m["requests.complete_ns.p99"] = cmp.q(0.99)
	ctl := add("ctrlplane.event", t.steps[layerCtrl], time.Microsecond, "us")
	m["ctrlplane.events"] = float64(len(ctl))
	m["ctrlplane.event_us.p50"] = ctl.q(0.5)
	add("faults.event", t.steps[layerFaults], time.Microsecond, "us")
	add("viprip.event", t.steps[layerVIPRIP], time.Microsecond, "us")
	add("other.event", t.steps[layerOther], time.Microsecond, "us")
	hook := add("observers.on_event", t.hook, time.Nanosecond, "ns")
	m["observers.events"] = float64(len(hook))
	m["observers.hook_ns.p50"] = hook.q(0.5)
	m["observers.publish_ms.p50"] = add("observers.publish", t.publish, time.Millisecond, "ms").q(0.5)
	m["propagate.steady_us"] = add("probe.propagate.steady", t.steady, time.Microsecond, "us").q(0.5)
	m["propagate.full_ms"] = add("probe.propagate.full", t.full, time.Millisecond, "ms").q(0.5)
	m["requests.refresh_ns_per_switch"] = 0
	if t.queues > 0 {
		m["requests.refresh_ns_per_switch"] = add("probe.requests.refresh", t.refresh, time.Nanosecond, "ns").q(0.5) / float64(t.queues)
	}

	// Attribution: each layer's share of the traced timed phase. The
	// observer hooks run inside other layers' events, so their share
	// overlaps the others'.
	var all time.Duration
	for l := range t.steps {
		all += sum(t.steps[l])
	}
	if all > 0 {
		for l, name := range layerNames {
			key := "attr." + name + "_frac"
			if l == layerReqArrival || l == layerReqComplete {
				continue
			}
			m[key] = float64(sum(t.steps[l])) / float64(all)
		}
		m["attr.requests_frac"] = float64(sum(t.steps[layerReqArrival])+sum(t.steps[layerReqComplete])) / float64(all)
		var events int
		for l := range t.steps {
			events += len(t.steps[l])
		}
		m["requests.event_frac"] = float64(len(t.steps[layerReqArrival])+len(t.steps[layerReqComplete])) / float64(events)
		m["attr.observers_frac"] = float64(sum(t.hook)+sum(t.publish)) / float64(all)
	}
	detail = append(detail, fmt.Sprintf("spans kept %d, dropped %d (cap %d)", len(t.spans), t.dropped, maxSpans))
	return m, detail
}

// writeSpans writes the spans as one JSON document.
func (t *tracer) writeSpans(path, name string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{name, seed, t.dropped, t.spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

package main

import (
	"fmt"
	"strings"
)

// outputs are the simulated outputs of one run: everything a
// performance-only change must leave bit-identical. The digest hashes
// their canonical text.
type outputs struct {
	Events       uint64
	SimTime      float64
	Satisfaction float64

	Generated, Enqueued, Served, Dropped, NoExposure int64
	Pending                                          int
	LatencyP50, LatencyP99                           float64

	Sent, Casts, Delivered, Deduped, BusDropped, Retries, Acks, DeadLetters int64

	PodSteps, GlobalSteps        int64
	VIPRIPProcessed, Requeues    int64
	StaleWrites                  int64
	Faults, Detections, Repairs  int64
	CausalTrees, CausalAbandoned int
}

func collect(in *instance) outputs {
	p := in.p
	o := outputs{
		Events:       p.Eng.Steps(),
		SimTime:      p.Eng.Now(),
		Satisfaction: p.TotalSatisfaction(),
		PodSteps:     in.podSteps(),
		GlobalSteps:  p.Global.Steps,

		VIPRIPProcessed: p.VIPRIP.Processed,
		Requeues:        p.VIPRIP.Requeues,
		StaleWrites:     p.DNS.StaleWrites,
	}
	if r := in.req; r != nil {
		st := r.Stats()
		o.Generated, o.Enqueued, o.Served, o.Dropped, o.NoExposure = st.Generated, st.Enqueued, st.Served, st.Dropped, st.NoExposure
		o.Pending = r.Pending()
		h := in.reg.Histogram("requests.latency.all")
		o.LatencyP50, o.LatencyP99 = h.Quantile(0.5), h.Quantile(0.99)
	}
	if b := p.Ctrl(); b != nil {
		o.Sent, o.Casts, o.Delivered, o.Deduped = b.Sent, b.Casts, b.Delivered, b.Deduped
		o.BusDropped, o.Retries, o.Acks, o.DeadLetters = b.Dropped, b.Retries, b.Acks, b.DeadLetters
	}
	if f := in.inj; f != nil {
		o.Faults, o.Detections, o.Repairs = f.Faults(), f.Detections, f.Repairs
	}
	if a := in.asm; a != nil {
		o.CausalTrees, o.CausalAbandoned = len(a.Causes()), a.Abandoned()
	}
	return o
}

// canonical renders the outputs as stable text; floats print with %v,
// which round-trips every bit.
func (o outputs) canonical() string {
	return fmt.Sprintf("%+v", o)
}

// accumulate adds one simulation's outputs to o.
func (o *outputs) accumulate(x outputs) {
	o.Events += x.Events
	o.SimTime += x.SimTime
	o.Satisfaction += x.Satisfaction
	o.Generated += x.Generated
	o.Enqueued += x.Enqueued
	o.Served += x.Served
	o.Dropped += x.Dropped
	o.NoExposure += x.NoExposure
	o.Pending += x.Pending
	o.LatencyP50 += x.LatencyP50
	o.LatencyP99 += x.LatencyP99
	o.Sent += x.Sent
	o.Casts += x.Casts
	o.Delivered += x.Delivered
	o.Deduped += x.Deduped
	o.BusDropped += x.BusDropped
	o.Retries += x.Retries
	o.Acks += x.Acks
	o.DeadLetters += x.DeadLetters
	o.PodSteps += x.PodSteps
	o.GlobalSteps += x.GlobalSteps
	o.VIPRIPProcessed += x.VIPRIPProcessed
	o.Requeues += x.Requeues
	o.StaleWrites += x.StaleWrites
	o.Faults += x.Faults
	o.Detections += x.Detections
	o.Repairs += x.Repairs
	o.CausalTrees += x.CausalTrees
	o.CausalAbandoned += x.CausalAbandoned
}

// average turns the accumulated ratios and times of n simulations into
// their means; counts stay totals.
func (o *outputs) average(n int) {
	k := float64(n)
	o.SimTime /= k
	o.Satisfaction /= k
	o.LatencyP50 /= k
	o.LatencyP99 /= k
}

// check runs the correctness gate after the timed phase: platform
// invariants, the I1–I5 audit, and request conservation. It returns
// every failure found.
func check(in *instance, o outputs) []string {
	var errs []string
	if err := in.p.CheckInvariants(); err != nil {
		errs = append(errs, "invariants: "+err.Error())
	}
	if err := in.p.AuditErr(); err != nil {
		errs = append(errs, "audit: "+firstLine(err.Error()))
	}
	if in.req != nil {
		if o.Generated != o.Served+o.Dropped+o.NoExposure+int64(o.Pending) {
			errs = append(errs, fmt.Sprintf("request conservation: generated %d != served %d + dropped %d + no-exposure %d + pending %d",
				o.Generated, o.Served, o.Dropped, o.NoExposure, o.Pending))
		}
		if in.drains && o.Pending != 0 {
			errs = append(errs, fmt.Sprintf("%d requests still pending after the drain", o.Pending))
		}
		if o.Generated == 0 || o.Served == 0 {
			errs = append(errs, "no requests generated or served")
		}
	}
	if o.Events == 0 {
		errs = append(errs, "no events executed")
	}
	return errs
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

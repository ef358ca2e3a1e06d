// Package exp implements the reproduction's experiment suite. The paper
// is a position paper with no evaluation tables, so the experiments
// E1–E14 regenerate its quantitative claims and its explicitly proposed
// (but deferred) evaluations — see DESIGN.md §4 for the per-experiment
// index and EXPERIMENTS.md for paper-vs-measured records. Each RunEx
// function returns both a machine-readable result and the printable
// table whose rows EXPERIMENTS.md reports.
package exp

import (
	"cmp"
	"slices"

	"megadc/internal/core"
	"megadc/internal/metrics"
	"megadc/internal/trace"
)

// Options selects the experiment scale.
type Options struct {
	// Full runs the larger configurations (minutes); the default runs
	// laptop-scale configurations (seconds) that preserve the ratios.
	Full bool
	// Seed makes every experiment deterministic.
	Seed int64
	// ForceFullPropagate makes every platform the experiment builds run
	// a full demand recompute on every Propagate call (no incremental
	// path). Incremental propagation is bit-exact against the full
	// path, so results must not change; the cross-check tests rely on
	// this to compare E7/E14 tables under both strategies.
	ForceFullPropagate bool
	// AuditEvery enables the cross-layer invariant auditor
	// (core.Config.AuditEvery, DESIGN.md §9) on every platform the
	// experiments build; any violation fails the experiment. 0 disables.
	AuditEvery int
	// Trace, when non-nil, attaches the flight recorder (DESIGN.md §10)
	// to every platform the experiments build. Recording does not
	// perturb results (core.TestTracingDoesNotPerturb); successive
	// platforms in one experiment share the recorder, so the event log
	// spans the whole run.
	Trace *trace.Recorder
	// Registry, when non-nil, accumulates the metrics instrumented
	// experiments publish (E15's control-plane latency histograms,
	// platform counters); cmd/mdcexp serves it live at -http.
	Registry *metrics.Registry
}

// DefaultOptions returns the defaults of cmd/mdcexp's -seed and -audit
// flags: seed 1, auditing every 10th propagation — the experiments
// double as a standing end-to-end audit at negligible cost.
func DefaultOptions() Options { return Options{Seed: 1, AuditEvery: 10} }

// configure applies the option-level platform knobs to a config an
// experiment built; every experiment constructing a core.Platform
// passes its config through here.
func (o Options) configure(cfg core.Config) core.Config {
	if o.ForceFullPropagate {
		cfg.PropagateFullEvery = 1
	}
	cfg.AuditEvery = o.AuditEvery
	cfg.Trace = o.Trace
	return cfg
}

// auditCheck gates an experiment's end on a clean invariant audit when
// auditing is enabled.
func (o Options) auditCheck(p *core.Platform) error {
	if o.AuditEvery <= 0 {
		return nil
	}
	return p.AuditErr()
}

// Experiment couples an id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*metrics.Table, error)
}

// All returns the experiment registry in id order.
func All() []Experiment {
	exps := []Experiment{
		{"e1", "LB switch packing (paper §III-B/V-A arithmetic)", func(o Options) (*metrics.Table, error) { t, _, err := RunE1(o); return t, err }},
		{"e2", "Placement algorithm scalability", func(o Options) (*metrics.Table, error) { t, _, err := RunE2(o); return t, err }},
		{"e3", "Pod size vs decision time and quality", func(o Options) (*metrics.Table, error) { t, _, err := RunE3(o); return t, err }},
		{"e4", "Selective VIP exposure vs naive re-advertisement", func(o Options) (*metrics.Table, error) { t, _, err := RunE4(o); return t, err }},
		{"e5", "VIPs-per-application tradeoff", func(o Options) (*metrics.Table, error) { t, _, err := RunE5(o); return t, err }},
		{"e6", "VIP transfer drain vs TTL violators", func(o Options) (*metrics.Table, error) { t, _, err := RunE6(o); return t, err }},
		{"e7", "Pod relief knob ablation", func(o Options) (*metrics.Table, error) { t, _, err := RunE7(o); return t, err }},
		{"e8", "Knob agility ladder", func(o Options) (*metrics.Table, error) { t, _, err := RunE8(o); return t, err }},
		{"e9", "Statistical multiplexing vs partitioning", func(o Options) (*metrics.Table, error) { t, _, err := RunE9(o); return t, err }},
		{"e10", "LB fabric is not a bottleneck", func(o Options) (*metrics.Table, error) { t, _, err := RunE10(o); return t, err }},
		{"e11", "Two-LB-layer decoupling and cost", func(o Options) (*metrics.Table, error) { t, _, err := RunE11(o); return t, err }},
		{"e12", "VIP allocation space and policies", func(o Options) (*metrics.Table, error) { t, _, err := RunE12(o); return t, err }},
		{"e13", "Policy conflict demonstration", func(o Options) (*metrics.Table, error) { t, _, err := RunE13(o); return t, err }},
		{"e14", "Availability vs failure rate (MTBF/MTTR churn)", func(o Options) (*metrics.Table, error) { t, _, err := RunE14(o); return t, err }},
		{"e15", "Control-plane latency vs churn rate (serialized reconfiguration)", func(o Options) (*metrics.Table, error) { t, _, err := RunE15(o); return t, err }},
		{"e16", "Satisfaction and oscillation under a fallible control plane (delay × loss × staleness)", func(o Options) (*metrics.Table, error) { t, _, err := RunE16(o); return t, err }},
		{"e17", "Request tail latency vs churn rate × pod size", func(o Options) (*metrics.Table, error) { t, _, err := RunE17(o); return t, err }},
		{"e18", "Policy tournament: satisfaction, tail latency, control cost by policy × scale × churn", func(o Options) (*metrics.Table, error) { t, _, err := RunE18(o); return t, err }},
		{"x1", "Extension: energy consolidation (paper §VI direction)", func(o Options) (*metrics.Table, error) { t, _, err := RunX1(o); return t, err }},
		{"x2", "Extension: multi-DC federation (paper §III-A remark)", func(o Options) (*metrics.Table, error) { t, _, err := RunX2(o); return t, err }},
		{"x3", "Extension: discrete sessions under the drain protocol", func(o Options) (*metrics.Table, error) { t, _, err := RunX3(o); return t, err }},
		{"x4", "Extension: failure domains and recovery", func(o Options) (*metrics.Table, error) { t, _, err := RunX4(o); return t, err }},
	}
	slices.SortFunc(exps, func(a, b Experiment) int { return cmp.Compare(a.ID, b.ID) })
	return exps
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

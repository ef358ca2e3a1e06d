package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// perLayer lists the traced pass's metrics (name, unit), in
// BENCHMARK.json order.
var perLayer = [][2]string{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"podmgr.steps", "count"},
	{"podmgr.step_ms.p50", "ms"},
	{"podmgr.step_ms.p90", "ms"},
	{"globalmgr.steps", "count"},
	{"globalmgr.step_ms.p50", "ms"},
	{"globalmgr.step_ms.max", "ms"},
	{"propagate.steady_us", "us"},
	{"propagate.full_ms", "ms"},
	{"requests.arrival_ns.p50", "ns"},
	{"requests.arrival_ns.p99", "ns"},
	{"requests.complete_ns.p50", "ns"},
	{"requests.complete_ns.p99", "ns"},
	{"requests.refresh_ns_per_switch", "ns"},
	{"requests.generated", "count"},
	{"requests.served", "count"},
	{"requests.dropped", "count"},
	{"requests.no_exposure", "count"},
	{"requests.latency_sim_s.p50", "sim_s"},
	{"requests.latency_sim_s.p99", "sim_s"},
	{"model.satisfaction", "ratio"},
	{"ctrlplane.sent", "count"},
	{"ctrlplane.casts", "count"},
	{"ctrlplane.retries", "count"},
	{"ctrlplane.dead_letters", "count"},
	{"ctrlplane.useful_frac", "ratio"},
	{"ctrlplane.events", "count"},
	{"ctrlplane.event_us.p50", "us"},
	{"viprip.processed", "count"},
	{"viprip.requeues", "count"},
	{"dns.stale_writes", "count"},
	{"faults.injected", "count"},
	{"faults.repaired", "count"},
	{"observers.events", "count"},
	{"observers.hook_ns.p50", "ns"},
	{"observers.publish_ms.p50", "ms"},
	{"causal.trees", "count"},
	{"causal.abandoned", "count"},
	{"observers.overhead_frac", "ratio"},
	{"gc.cpu_frac", "ratio"},
	{"alloc.objects_per_event", "count"},
	{"alloc.bytes_per_event", "B"},
	{"heap.live_mb", "MB"},
	{"setup.platform_s", "s"},
	{"setup.onboard_s", "s"},
	{"setup.engine_s", "s"},
	{"attr.podmgr_frac", "ratio"},
	{"attr.globalmgr_frac", "ratio"},
	{"attr.faults_frac", "ratio"},
	{"attr.viprip_frac", "ratio"},
	{"attr.requests_frac", "ratio"},
	{"requests.event_frac", "ratio"},
	{"attr.ctrlplane_frac", "ratio"},
	{"attr.other_frac", "ratio"},
	{"attr.observers_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// fromUntraced maps the per-layer metrics taken from the untraced
// repetitions of a --trace 1 run: simulated outputs, allocation and GC
// figures, and set-up phases, none of which the per-event hooks should
// colour.
var fromUntraced = map[string]func(r rep) float64{
	"sim.events":       func(r rep) float64 { return float64(r.Outputs.Events) },
	"sim.ns_per_event": func(r rep) float64 { return r.PhaseS * 1e9 / float64(r.Outputs.Events) },

	"requests.generated":         func(r rep) float64 { return float64(r.Outputs.Generated) },
	"requests.served":            func(r rep) float64 { return float64(r.Outputs.Served) },
	"requests.dropped":           func(r rep) float64 { return float64(r.Outputs.Dropped) },
	"requests.no_exposure":       func(r rep) float64 { return float64(r.Outputs.NoExposure) },
	"requests.latency_sim_s.p50": func(r rep) float64 { return r.Outputs.LatencyP50 },
	"requests.latency_sim_s.p99": func(r rep) float64 { return r.Outputs.LatencyP99 },
	"model.satisfaction":         func(r rep) float64 { return r.Outputs.Satisfaction },

	"ctrlplane.sent":         func(r rep) float64 { return float64(r.Outputs.Sent) },
	"ctrlplane.casts":        func(r rep) float64 { return float64(r.Outputs.Casts) },
	"ctrlplane.retries":      func(r rep) float64 { return float64(r.Outputs.Retries) },
	"ctrlplane.dead_letters": func(r rep) float64 { return float64(r.Outputs.DeadLetters) },
	"ctrlplane.useful_frac": func(r rep) float64 {
		o := r.Outputs
		if n := o.Sent + o.Casts + o.Retries; n > 0 {
			return float64(o.Delivered) / float64(n)
		}
		return 0
	},
	"viprip.processed": func(r rep) float64 { return float64(r.Outputs.VIPRIPProcessed) },
	"viprip.requeues":  func(r rep) float64 { return float64(r.Outputs.Requeues) },
	"dns.stale_writes": func(r rep) float64 { return float64(r.Outputs.StaleWrites) },
	"faults.injected":  func(r rep) float64 { return float64(r.Outputs.Faults) },
	"faults.repaired":  func(r rep) float64 { return float64(r.Outputs.Repairs) },
	"causal.trees":     func(r rep) float64 { return float64(r.Outputs.CausalTrees) },
	"causal.abandoned": func(r rep) float64 { return float64(r.Outputs.CausalAbandoned) },

	"gc.cpu_frac":             func(r rep) float64 { return r.GCCPUFrac },
	"alloc.objects_per_event": func(r rep) float64 { return float64(r.Mallocs) / float64(r.Outputs.Events) },
	"alloc.bytes_per_event":   func(r rep) float64 { return float64(r.Bytes) / float64(r.Outputs.Events) },
	"heap.live_mb":            func(r rep) float64 { return r.HeapLiveMB },
}

// fingerprint describes the machine and source the run measured.
func fingerprint(o options) []string {
	commit := os.Getenv("LAYERBENCH_COMMIT")
	if commit == "" {
		commit = "none"
	}
	return []string{
		"cpu " + cpuModel(),
		"nproc " + strconv.Itoa(runtime.NumCPU()) + "  GOMAXPROCS " + strconv.Itoa(gomaxprocs),
		"go " + runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		"commit " + commit + "  source-sha256 " + sourceHash(o.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and module file of the checkout, so
// a result identifies the code it measured even outside a git
// repository. Hidden directories (build outputs) are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not contribute
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

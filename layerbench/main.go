// Command layerbench is the simulator's layered benchmark: three seeded
// workloads driven through the public API of core, requests, faults,
// trace/spans/causal and sim, each reporting end-to-end metrics from
// untraced runs (--trace 0) or per-layer metrics from a traced pass
// (--trace 1). See README.md in this directory.
//
//	bash layerbench/run.sh --workload fleet-10k --seed 1 --seconds 30 --trace 0
//
// The parent process measures for --seconds by running repetitions,
// each in a fresh child process (so peak RSS is that of a process that
// ran only the workload), and prints medians. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given.
// Seed 7 is held out: later performance claims must also hold on it.
const defaultSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	root     string
	tiny     bool
	child    string
	spans    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: fleet-10k, requests-10k or churn-observed")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (7 is held out for confirming claims)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure, in host seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from the traced pass")
	flag.StringVar(&o.root, "root", ".", "checkout root; spans go to <root>/.bench_build")
	flag.BoolVar(&o.tiny, "tiny", false, "run the tiny self-test sizes of the workload")
	flag.StringVar(&o.child, "child", "", "internal: run one repetition in this mode and print it as JSON")
	flag.StringVar(&o.spans, "spans", "", "internal: span file of a traced repetition")
	flag.Parse()
	if _, err := paramsFor(o.workload, o.tiny); err != nil {
		fatal(err)
	}
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", o.trace))
	}
	if o.child != "" {
		runtime.GOMAXPROCS(gomaxprocs)
		res, err := runRep(o.workload, o.seed, o.tiny, o.child, o.spans)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	out, err := measure(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// gomaxprocs is the GOMAXPROCS of the measured processes. It is one: on a
// shared virtual machine whose CPU quota is below its vCPU count, a
// process busy on two vCPUs is throttled, and the hypervisor's steal
// time (a third of the wall clock, in one measurement) then swamps what
// the benchmark measures. One also keeps results from machines with
// different core counts comparable.
const gomaxprocs = 1

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layerbench:", err)
	os.Exit(2)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// rep is one finished child repetition.
type rep struct {
	repResult
	rssMB float64
}

// spawn runs one repetition in a child process and returns its result
// with the child's peak RSS.
func spawn(o options, mode, spansPath string) (rep, error) {
	self, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	args := []string{"-child", mode, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-tiny=" + strconv.FormatBool(o.tiny), "-spans", spansPath}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("%s repetition: %w", mode, err)
	}
	var r rep
	if err := json.Unmarshal(stdout.Bytes(), &r.repResult); err != nil {
		return rep{}, fmt.Errorf("%s repetition output: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// measure runs repetitions for o.seconds and aggregates them.
func measure(o options) (result, error) {
	fp := fingerprint(o)
	for _, l := range fp {
		fmt.Println(l)
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", o.workload, o.seed, o.seconds, o.trace)

	var modes []string
	switch {
	case o.trace == 0:
		modes = []string{modeUntraced}
	case o.workload == "churn-observed":
		modes = []string{modeUntraced, modeTraced, modeObserversOff}
	default:
		modes = []string{modeUntraced, modeTraced}
	}
	spansPath := ""
	if o.trace == 1 {
		dir := filepath.Join(o.root, ".bench_build")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		spansPath = filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	}
	// At least two untraced repetitions, so every run compares two
	// digests of the same seed; the traced pass runs at least once.
	minRounds := 2
	if o.trace == 1 {
		minRounds = 1
	}
	pr, err := paramsFor(o.workload, o.tiny)
	if err != nil {
		return result{}, err
	}
	for i := 0; i < pr.setupProcs; i++ {
		modes = append(modes, modeSetup)
	}
	// Rounds run until the next one, taking as long as the last, would
	// end past o.seconds.
	start := time.Now()
	var last time.Duration
	byMode := map[string][]rep{}
	for round := 0; round < minRounds || (time.Since(start)+last).Seconds() <= o.seconds; round++ {
		r0 := time.Now()
		for _, m := range modes {
			r, err := spawn(o, m, spansPath)
			if err != nil {
				return result{}, err
			}
			byMode[m] = append(byMode[m], r)
		}
		last = time.Since(r0)
	}
	return aggregate(o, byMode), nil
}

// medianOver is the median over the repetitions rs of f(repetition).
func medianOver(rs []rep, f func(r rep) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func simRate(r rep) float64 { return r.SimS / r.HostS }

func reqRate(r rep) float64 { return float64(r.Served) / r.HostS }

// setupMedian is the median of f over every timed build of every
// repetition and set-up-only process.
func setupMedian(byMode map[string][]rep, f func(s setupSample) float64) float64 {
	var xs []float64
	for _, rs := range byMode {
		for _, r := range rs {
			for _, s := range r.Setups {
				xs = append(xs, f(s))
			}
		}
	}
	return median(xs)
}

// aggregate checks the repetitions against each other and reduces them
// to the reported medians.
func aggregate(o options, byMode map[string][]rep) result {
	out := result{Correct: true, Metrics: map[string]value{}}
	var problems []string
	untraced := byMode[modeUntraced]
	ref := untraced[0]
	fmt.Printf("digest %s  %s\n", ref.Digest, ref.Outputs.canonical())
	// Set-up-only processes produce no outputs.
	for _, m := range []string{modeUntraced, modeTraced, modeObserversOff} {
		for i, r := range byMode[m] {
			out.Attempted += r.Attempted
			out.Failed += r.Failed
			bad := len(r.Errors) > 0
			for _, e := range r.Errors {
				problems = append(problems, fmt.Sprintf("%s #%d: %s", m, i, e))
			}
			switch m {
			case modeObserversOff:
				// Observers off: the causal assembler and the observers'
				// own timer events are absent; every simulated output
				// must still match.
				o2 := r.Outputs
				o2.Events = ref.Outputs.Events
				o2.CausalTrees, o2.CausalAbandoned = ref.Outputs.CausalTrees, ref.Outputs.CausalAbandoned
				if o2.canonical() != ref.Outputs.canonical() {
					bad = true
					problems = append(problems, fmt.Sprintf("%s #%d: outputs differ with observers off: %s", m, i, o2.canonical()))
				}
			default:
				if r.Digest != ref.Digest {
					bad = true
					problems = append(problems, fmt.Sprintf("%s #%d: digest %s differs from %s: %s", m, i, r.Digest, ref.Digest, r.Outputs.canonical()))
				}
			}
			if bad {
				out.Failed += r.Attempted - r.Failed
			}
		}
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
		problems = append(problems, "no operations attempted")
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
		out.Correct = false
	}
	if out.Correct {
		fmt.Printf("checks ok: invariants, audit, request conservation, digest identical across %d repetitions\n", countReps(byMode))
	}

	add := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("CHECK FAILED: metric %s is %v\n", name, v)
			out.Correct = false
			v = 0
		}
		out.Metrics[name] = value{Value: v, Unit: unit}
	}
	if o.trace == 0 {
		add("setup_s", "s", setupMedian(byMode, func(s setupSample) float64 { return s.Total }))
		add("sim_s_per_s", "sim_s/s", medianOver(untraced, simRate))
		add("req_per_s", "req/s", medianOver(untraced, reqRate))
		add("allocs_per_sim_s", "objects/sim_s", medianOver(untraced, func(r rep) float64 { return float64(r.Mallocs) / r.SimS }))
		add("peak_rss_mb", "MB", medianOver(untraced, func(r rep) float64 { return r.rssMB }))
		printMetrics(out.Metrics, untraced)
		for _, r := range untraced {
			fmt.Printf("  repetition: %.4f ref s (%.4f CPU s)  sim_s/s %.6g  req/s %.6g  rss %.1f MB\n",
				r.HostS, r.CPUS, simRate(r), reqRate(r), r.rssMB)
		}
		return out
	}

	traced := byMode[modeTraced]
	for _, d := range traced[len(traced)-1].Detail {
		fmt.Println("  " + d)
	}
	for _, pl := range perLayer {
		name, unit := pl[0], pl[1]
		var v float64
		switch name {
		case "trace.overhead_frac":
			v = medianOver(untraced, simRate)/medianOver(traced, simRate) - 1
		case "observers.overhead_frac":
			if off := byMode[modeObserversOff]; len(off) > 0 {
				v = medianOver(off, simRate)/medianOver(untraced, simRate) - 1
			}
		case "setup.platform_s":
			v = setupMedian(byMode, func(s setupSample) float64 { return s.Platform })
		case "setup.onboard_s":
			v = setupMedian(byMode, func(s setupSample) float64 { return s.Onboard })
		case "setup.engine_s":
			v = setupMedian(byMode, func(s setupSample) float64 { return s.Engine })
		default:
			if f, ok := fromUntraced[name]; ok {
				v = medianOver(untraced, f)
			} else {
				v = medianOver(traced, func(r rep) float64 { return r.Layers[name] })
			}
		}
		add(name, unit, v)
	}
	printMetrics(out.Metrics, untraced)
	return out
}

// countReps counts the repetitions that produced outputs.
func countReps(byMode map[string][]rep) int {
	return len(byMode[modeUntraced]) + len(byMode[modeTraced]) + len(byMode[modeObserversOff])
}

func printMetrics(m map[string]value, untraced []rep) {
	fmt.Printf("repetitions %d (medians reported)\n", len(untraced))
	for _, name := range sortedKeys(m) {
		fmt.Printf("  %-34s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

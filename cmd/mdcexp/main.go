// Command mdcexp regenerates the reproduction's experiment tables:
// E1–E18 (the paper's quantitative claims and proposed evaluations; see
// DESIGN.md §4) plus the extension experiments X1–X4 (energy, multi-DC,
// sessions, failures). Each experiment prints the same rows
// EXPERIMENTS.md records.
//
// Usage:
//
//	mdcexp                 # run every experiment at laptop scale
//	mdcexp -e e4           # run one experiment
//	mdcexp -full           # larger configurations (minutes)
//	mdcexp -seed 7         # change the deterministic seed
//	mdcexp -audit 1        # audit conservation laws on every Propagate (0 disables)
//	mdcexp -list           # list experiment ids and titles
//	mdcexp -json           # machine-readable output (one JSON doc per experiment)
//	mdcexp -trace -trace-events ev.log -e e4   # flight-record an experiment (DESIGN.md §10)
//	mdcexp -cpuprofile cpu.pprof -e e2   # profile an experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"megadc/internal/exp"
	"megadc/internal/metrics"
	"megadc/internal/obs"
	"megadc/internal/profiling"
	"megadc/internal/trace"
)

func main() {
	defaults := exp.DefaultOptions()
	var (
		id          = flag.String("e", "all", "experiment id (e1..e18, x1..x4) or 'all'")
		full        = flag.Bool("full", false, "run the larger configurations")
		seed        = flag.Int64("seed", defaults.Seed, "deterministic seed")
		auditN      = flag.Int("audit", defaults.AuditEvery, "run the conservation-law auditor every N Propagate calls (0 disables)")
		list        = flag.Bool("list", false, "list experiments and exit")
		asJSON      = flag.Bool("json", false, "emit each table as a JSON document")
		asMD        = flag.Bool("md", false, "emit each table as GitHub-flavoured markdown")
		useTrace    = flag.Bool("trace", false, "attach the flight recorder to every platform the experiments build")
		traceEvents = flag.String("trace-events", "", "with -trace: write the event log to this file ('-' = stdout)")
		traceTS     = flag.String("trace-ts", "", "with -trace: write the time series to this file (.json = JSON, else CSV; '-' = stdout)")
		tracePerf   = flag.String("trace-perfetto", "", "with -trace: write Chrome trace-event JSON for Perfetto (ui.perfetto.dev; '-' = stdout)")
		obsFlags    = profiling.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	obsSession, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdcexp:", err)
		os.Exit(1)
	}
	defer obsSession.Stop()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := exp.Options{Full: *full, Seed: *seed, AuditEvery: *auditN,
		Registry: metrics.NewRegistry()}
	if *useTrace {
		opts.Trace = trace.NewRecorder(trace.DefaultRingSize)
		opts.Trace.TS = &trace.Timeseries{}
	} else if *traceEvents != "" || *traceTS != "" || *tracePerf != "" {
		fmt.Fprintln(os.Stderr, "mdcexp: -trace-events/-trace-ts/-trace-perfetto require -trace")
		os.Exit(2)
	}
	// Reject unwritable export paths up front, before the run burns time
	// on an export that will fail at the end.
	if err := trace.EnsureWritable(*traceEvents, *traceTS, *tracePerf); err != nil {
		fmt.Fprintln(os.Stderr, "mdcexp:", err)
		os.Exit(2)
	}
	var toRun []exp.Experiment
	if *id == "all" {
		toRun = exp.All()
	} else {
		e, ok := exp.Lookup(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "mdcexp: unknown experiment %q (use -list)\n", *id)
			os.Exit(2)
		}
		toRun = []exp.Experiment{e}
	}

	for _, e := range toRun {
		start := time.Now()
		tb, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcexp: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if obsSession.Obs != nil {
			obsSession.Obs.Publish(opts.Registry, obs.Status{})
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tb); err != nil {
				fmt.Fprintf(os.Stderr, "mdcexp: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			continue
		}
		if *asMD {
			tb.RenderMarkdown(os.Stdout)
			fmt.Println()
			continue
		}
		tb.Render(os.Stdout)
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if opts.Trace != nil {
		if err := trace.ExportFiles(opts.Trace, *traceEvents, *traceTS, *tracePerf); err != nil {
			fmt.Fprintln(os.Stderr, "mdcexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events recorded (%d in ring)\n",
			opts.Trace.Total(), opts.Trace.Len())
	}
}

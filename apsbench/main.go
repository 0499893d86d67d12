// Command apsbench is the repository benchmark: three workloads driven
// from one process through the repo's Go API, each checked against a
// reference, reporting end-to-end metrics from untraced runs and
// per-layer metrics from a separate traced run.
//
//	paper  the cmd/experiments per-platform pipeline on glucosym:
//	       campaign, fault-free runs, suite training, Tables V-VIII
//	fleet  one batch fleet.Run on glucosym: the 882-program matrix,
//	       one-day sessions, CGM noise, batched CAWOT with mitigation,
//	       monitor telemetry into a histogram sink through epoch-merged
//	       sharded sinks
//	serve  an in-process fleetd on t1ds2013 over loopback HTTP: a fixed
//	       background tenant plus one closed-loop client churning small
//	       tenants (PUT, stream, read, DELETE)
//
// Usage:
//
//	go run . --workload fleet --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every workload reports every
// metric. With --trace 0 they are the end-to-end metrics, each the
// median over the units of work done in --seconds:
//
//	setup_s      median of repeated set-ups: generating the inputs from
//	             the seed (paper, fleet; see timeInputs); fleetd.New,
//	             Start and the background tenant's first record (serve).
//	             The warm-up run before timing starts is not timed.
//	wall_s       one pipeline until all tables exist (paper); one
//	             fleet.Run (fleet); PUT sent to the tenant's first
//	             telemetry record, the admission latency (serve)
//	steps_per_s  control cycles per second: of the pipeline's simulation
//	             stages (paper); of the fleet run (fleet); fleet-wide,
//	             as the churn stream's lock-step round rate times the
//	             live sessions (serve)
//	cpu_s        process CPU per pipeline, per fleet run, or per churn
//	             tenant lifecycle
//	rss_peak_mb  the process's resident high-water mark
//
// With --trace 1 the run wraps the platform, monitor and sink
// interfaces the engine accepts, records spans around the coarse public
// calls, and reports the per-layer metrics (perLayerMetrics) instead:
// per unit of work on paper and fleet, per second of serving on serve;
// a layer a workload does not exercise reads 0. tracing.wall_s is the
// traced run's wall_s, so the tracing overhead is its difference from
// the untraced wall_s. Diagnostics go to standard error.
//
// Every checked output counts as one attempted operation and a mismatch
// as a failed one. A failure listed in knownFailures (check.go) is still
// counted in failed, but does not make the run incorrect. Outputs are
// checked against a reference computed at Parallel 1; refs/ holds the
// references for seeds 1 and 2, written with
//
//	go run . --workload paper --seed 1 --write-ref refs/paper-seed1.json
//
// Run it through run.py, which builds into .bench_build/ at the
// checkout root; `go test ./...` here is the harness self-test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// toy selects the toy input sizes the harness self-test uses.
	toy bool
	// outDir, when set, receives the traced run's trace file (spans and
	// whole-run layer totals).
	outDir string
	// ref, when non-nil, replaces the stored/computed reference (the
	// self-test corrupts one this way).
	ref map[string]string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"paper": runPaper,
	"fleet": runFleet,
	"serve": runServe,
}

func main() {
	var (
		opt      options
		traceArg int
		writeRef string
	)
	flag.StringVar(&opt.workload, "workload", "", "workload: paper, fleet or serve")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; every generated input derives from it")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&traceArg, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&opt.outDir, "out", "", "directory for the traced run's trace file")
	flag.StringVar(&writeRef, "write-ref", "", "compute the Parallel-1 reference for --workload/--seed into this file and exit")
	flag.Parse()
	if traceArg != 0 && traceArg != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", traceArg))
	}
	opt.trace = traceArg == 1
	if writeRef != "" {
		ref, err := computeReference(opt)
		if err != nil {
			fail(err)
		}
		if err := writeRefFile(writeRef, ref); err != nil {
			fail(err)
		}
		return
	}
	run, ok := workloads[opt.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want paper, fleet or serve)", opt.workload))
	}
	if opt.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", opt.seconds))
	}
	rep, err := run(opt)
	if err != nil {
		fail(err)
	}
	rep.printDiagnostics(os.Stderr)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "apsbench:", err)
	os.Exit(1)
}

// computeReference runs the workload's reference pipeline at Parallel 1.
func computeReference(opt options) (map[string]string, error) {
	switch opt.workload {
	case "paper":
		return paperReference(paperInputsFor(opt))
	case "fleet":
		return fleetReference(fleetInputsFor(opt))
	default:
		return nil, fmt.Errorf("workload %q has no stored reference", opt.workload)
	}
}

func writeRefFile(path string, ref map[string]string) error {
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

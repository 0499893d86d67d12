package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/experiment"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics and check outcomes.
type report struct {
	metrics map[string]metric
	check   *checker
	notes   []string
}

func newReport(workload string) *report {
	return &report{metrics: make(map[string]metric), check: newChecker(workload)}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setEndToEnd reports the end-to-end metrics.
func (r *report) setEndToEnd(setup, wall, stepsPerS, cpu, rssMB float64) {
	r.set("setup_s", "s", setup)
	r.set("wall_s", "s", wall)
	r.set("steps_per_s", "1/s", stepsPerS)
	r.set("cpu_s", "s", cpu)
	r.set("rss_peak_mb", "MB", rssMB)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) result() result {
	return result{
		Correct:   r.check.unexpected == 0,
		Attempted: r.check.attempted,
		Failed:    r.check.failed,
		Metrics:   r.metrics,
	}
}

// printDiagnostics writes the notes and every failed check to w.
func (r *report) printDiagnostics(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, item := range sortedKeys(r.check.failures) {
		if why, known := knownFailures[r.check.workload+"/"+item]; known {
			fmt.Fprintf(w, "check %s: %d mismatches (known failure: %s)\n", item, r.check.failures[item], why)
		} else {
			fmt.Fprintf(w, "check %s: %d mismatches\n", item, r.check.failures[item])
		}
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed, %d unexpected\n",
		r.check.attempted, r.check.failed, r.check.unexpected)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// peakRSSMB returns the process's peak resident set size so far. The
// Go heap's own peak depends on where collections happen to fall
// relative to short-lived allocation bursts; the resident high-water
// mark is what the host had to provide.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read around each unit of work.
const (
	heapAllocs = "/gc/heap/allocs:bytes"
	gcCycles   = "/gc/cycles/total:gc-cycles"
)

// runtimeCounters reads the cumulative allocation and GC counters.
func runtimeCounters() (allocBytes, cycles uint64) {
	s := []metrics.Sample{{Name: heapAllocs}, {Name: gcCycles}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cost is what one unit of work took: wall, CPU, allocations and GC
// cycles.
type cost struct {
	wall, cpu float64 // seconds
	allocMB   float64
	gcCycles  float64
}

// measure runs fn as one unit of work and returns its cost.
func measure(fn func() error) (cost, error) {
	a0, g0 := runtimeCounters()
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	a1, g1 := runtimeCounters()
	return cost{
		wall:     wall.Seconds(),
		cpu:      cpu.Seconds(),
		allocMB:  float64(a1-a0) / 1e6,
		gcCycles: float64(g1 - g0),
	}, err
}

// costs collects per-unit measurements and reports their medians.
type costs []cost

func (us costs) median(field func(cost) float64) float64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = field(u)
	}
	return median(xs)
}

func wallOf(c cost) float64 { return c.wall }
func cpuOf(c cost) float64  { return c.cpu }

// timeInputs times input generation, the set-up of the paper and fleet
// workloads. One generation takes a millisecond or less, so each of
// setupBatches samples times a batch of n generations and the result is
// the median sample per generation. Each batch starts from a collected
// heap, so every batch meets the same collector state.
func timeInputs(n int, generate func()) float64 {
	const setupBatches = 15
	var xs []float64
	for i := 0; i < setupBatches; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < n; j++ {
			generate()
		}
		xs = append(xs, time.Since(t0).Seconds()/float64(n))
	}
	return median(xs)
}

// timeSetup runs setup n times and returns the median wall time; last
// is true on the final run, whose result the caller keeps.
func timeSetup(n int, setup func(last bool) error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// perLayerMetrics names every per-layer metric with its unit. A traced
// run prints all of them; a layer a workload does not exercise reads 0.
var perLayerMetrics = func() map[string]string {
	m := map[string]string{
		"control.decide_s":         "s",
		"control.calls":            "count",
		"sim.step_lanes_s":         "s",
		"sim.lane_steps":           "count",
		"monitor.step_batch_s":     "s",
		"monitor.verdicts":         "count",
		"fleet.sink_emit_s":        "s",
		"fleet.sink_events":        "count",
		"fleet.other_s":            "s",
		"risk.label_s":             "s",
		"runtime.alloc_mb":         "MB",
		"runtime.gc_cycles":        "count",
		"experiment.campaign_s":    "s",
		"experiment.fault_free_s":  "s",
		"experiment.build_suite_s": "s",
		"experiment.table8_s":      "s",
		"stllearn.learn_s":         "s",
		"fleetd.put_ms":            "ms",
		"fleetd.delete_ms":         "ms",
		"fleetd.admit_ms_p95":      "ms",
		"fleetd.rounds_per_s":      "1/s",
		"fleetd.stream_dropped":    "count",
		"fleetd.rejected":          "count",
		"tracing.wall_s":           "s",
	}
	for _, name := range experiment.MonitorNames {
		m["experiment.evaluate_s."+name] = "s"
	}
	for _, name := range mitigationMonitors {
		m["experiment.mitigation_s."+name] = "s"
	}
	return m
}()

// setPerLayer reports the median over units of every per-layer value.
func setPerLayer(r *report, perUnit []map[string]float64) {
	for name, u := range perLayerMetrics {
		var xs []float64
		for _, lm := range perUnit {
			xs = append(xs, lm[name])
		}
		r.set(name, u, median(xs))
	}
}

// engineLayers turns decorated-layer totals over a stretch of fleet
// runs (engineWall, run on runtime.NumCPU-wide fleets) into per-layer
// values. fleet.other_s is the shard time the decorated layers do not
// account for: orchestration, sensing, fault plans, telemetry,
// labelling, set-up and barrier waits.
func engineLayers(t layerTotals, engineWall time.Duration, u cost) map[string]float64 {
	shards := time.Duration(runtime.NumCPU())
	return map[string]float64{
		"control.decide_s":     t.control.busy.Seconds(),
		"control.calls":        float64(t.control.calls),
		"sim.step_lanes_s":     t.sim.busy.Seconds(),
		"sim.lane_steps":       float64(t.sim.work),
		"monitor.step_batch_s": t.monitor.busy.Seconds(),
		"monitor.verdicts":     float64(t.monitor.work),
		"fleet.sink_emit_s":    t.sink.busy.Seconds(),
		"fleet.sink_events":    float64(t.sink.calls),
		"fleet.other_s":        (shards*engineWall - t.busy()).Seconds(),
		"runtime.alloc_mb":     u.allocMB,
		"runtime.gc_cycles":    u.gcCycles,
	}
}

// referenceFor returns the reference a run checks against: an injected
// one (self-test), the stored one for this seed, or one computed at
// Parallel 1.
func referenceFor(opt options, compute func() (map[string]string, error)) (map[string]string, error) {
	if opt.ref != nil {
		return opt.ref, nil
	}
	if ref, ok := storedReference(opt.workload, opt.toy, opt.seed); ok {
		return ref, nil
	}
	return compute()
}

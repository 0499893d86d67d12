package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
)

// fleetInputs is the fleet workload's input, generated from the seed.
type fleetInputs struct {
	platform fleet.Platform
	patients []int
	programs []fault.Program
	steps    int
	seed     int64
}

// fleetInputsFor thins the 882-program campaign matrix to every
// thin-th program (keeping the matrix's fault/BG mix) over the whole
// cohort, as one-day sessions. The seed is the fleet's master seed: it
// drives every session's RNG stream, CGM noise included. The program
// table stays fixed so that seeds differ in draws, not in how much work
// the matrix slice holds.
func fleetInputsFor(opt options) fleetInputs {
	thin, patients, steps := 8, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 288
	if opt.toy {
		thin, patients, steps = 98, []int{0, 1}, 48
	}
	all := fault.CampaignPrograms(nil)
	var progs []fault.Program
	for i := 0; i < len(all); i += thin {
		progs = append(progs, all[i])
	}
	return fleetInputs{
		platform: fleet.Platform(experiment.Glucosym()),
		patients: patients,
		programs: progs,
		steps:    steps,
		seed:     opt.seed,
	}
}

// fleetConfig is the fleetsim throughput shape: CGM noise, batched
// CAWOT with mitigation, monitor-sourced telemetry into a histogram sink
// through epoch-merged sharded sinks, traces discarded. lay, when
// non-nil, decorates the platform, monitor and sink.
func fleetConfig(in fleetInputs, parallel int, hist *fleet.HistSink, lay *layers) fleet.Config {
	platform := in.platform
	newMon := func() (monitor.BatchMonitor, error) {
		return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
	}
	var sink fleet.Sink = hist
	if lay != nil {
		platform = lay.platform(platform)
		newMon = lay.batchMonitor(newMon)
		sink = lay.sink(hist)
	}
	return fleet.Config{
		Platform:        platform,
		Patients:        in.patients,
		Scenarios:       in.programs,
		Steps:           in.steps,
		Parallel:        parallel,
		Seed:            in.seed,
		Sensor:          &sensor.Config{NoiseSD: 2.5},
		NewBatchMonitor: newMon,
		Mitigate:        true,
		Telemetry:       &fleet.TelemetryConfig{FromMonitor: true},
		Sinks:           []fleet.Sink{sink},
		ShardedSinks:    true,
		SinkEpoch:       64, // the continuous-fleet default
		DiscardTraces:   true,
	}
}

func newHist() *fleet.HistSink {
	h, err := fleet.NewHistSink(-5, 5, 50)
	if err != nil {
		panic(err) // constant, valid arguments
	}
	return h
}

// fleetRun runs one fleet and returns its checked items.
func fleetRun(in fleetInputs, parallel int, lay *layers) (fleet.Result, map[string]string, error) {
	hist := newHist()
	res, err := fleet.Run(context.Background(), fleetConfig(in, parallel, hist, lay))
	if err != nil {
		return res, nil, err
	}
	items := map[string]string{
		"result":       digest([]int64{int64(res.Sessions), res.Completed, res.Steps, res.Hazardous, res.Alarmed}),
		"hist.dropped": digest(hist.Dropped()),
	}
	for _, p := range hist.Patients() {
		counts, _ := hist.Histogram(p)
		mean, n := hist.Mean(p)
		items[fmt.Sprintf("hist.patient%d", p)] = digest([]any{counts, mean, n})
	}
	return res, items, nil
}

// fleetReference is the fleet's output at Parallel 1.
func fleetReference(in fleetInputs) (map[string]string, error) {
	_, items, err := fleetRun(in, 1, nil)
	return items, err
}

// runFleet measures whole fleet runs back to back for opt.seconds.
func runFleet(opt options) (*report, error) {
	rep := newReport("fleet")
	// Warm up, untimed, on a slice of the inputs so code, allocator and
	// scheduler state are settled before set-up and the first unit are
	// timed.
	in := fleetInputsFor(opt)
	warm := in
	warm.patients, warm.programs = in.patients[:1], in.programs[:min(16, len(in.programs))]
	if _, _, err := fleetRun(warm, 0, nil); err != nil {
		return nil, err
	}
	setup := timeInputs(100, func() { in = fleetInputsFor(opt) })

	var (
		lay *layers
		sp  *spans
	)
	if opt.trace {
		lay, sp = &layers{}, newSpans()
	}
	var (
		us       costs
		results  []map[string]string
		steps    []float64
		perLayer []map[string]float64
	)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(us) == 0 || time.Now().Before(deadline) {
		var before layerTotals
		if lay != nil {
			before = lay.totals()
		}
		var (
			res   fleet.Result
			items map[string]string
		)
		u, err := measure(func() error {
			_, err := sp.do("fleet.Run", -1, func() (err error) {
				res, items, err = fleetRun(in, 0, lay)
				return err
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		us = append(us, u)
		results = append(results, items)
		steps = append(steps, float64(res.Steps)/u.wall)
		if lay != nil {
			perLayer = append(perLayer, engineLayers(lay.totals().minus(before), time.Duration(u.wall*float64(time.Second)), u))
		}
	}

	rss := peakRSSMB() // before the reference run adds its own
	ref, err := referenceFor(opt, func() (map[string]string, error) { return fleetReference(in) })
	if err != nil {
		return nil, err
	}
	for _, items := range results {
		rep.check.compare(items, ref)
	}
	rep.note("fleet: %d runs, %d checked items each", len(us), len(results[0]))

	if opt.trace {
		setPerLayer(rep, perLayer)
		rep.set("tracing.wall_s", "s", us.median(wallOf))
		return rep, writeTrace(opt, sp, lay)
	}
	rep.setEndToEnd(setup, us.median(wallOf), median(steps), us.median(cpuOf), rss)
	return rep, nil
}

package main

import (
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/risk"
	"repro/internal/scs"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// paperInputs is everything the paper pipeline consumes, generated from
// the workload seed.
type paperInputs struct {
	platform     experiment.Platform
	patients     []int // nil: the whole cohort
	scenarios    []fault.Scenario
	mitScenarios []fault.Scenario
	suite        experiment.SuiteConfig
}

// paperInputsFor thins the 882-scenario campaign to every thin-th
// scenario (experiment.ScenarioSubset, as cmd/experiments -thin does),
// reruns every fourth of those with mitigation for Table VII, and seeds
// suite training (ML subsampling and weight initialisation) with the
// workload seed.
func paperInputsFor(opt options) paperInputs {
	thin, patients := 16, []int(nil)
	suite := experiment.SuiteConfig{
		MaxMLSamples:   6000,
		MaxLSTMWindows: 1500,
		MLPEpochs:      6,
		LSTMEpochs:     3,
		MLPHidden:      []int{32, 16},
		LSTMUnits:      []int{16, 8},
	}
	if opt.toy {
		thin, patients = 98, []int{0, 1, 2}
		suite = experiment.SuiteConfig{
			MaxMLSamples: 800, MaxLSTMWindows: 200,
			MLPEpochs: 2, LSTMEpochs: 1,
			MLPHidden: []int{8}, LSTMUnits: []int{4},
		}
	}
	suite.Seed = opt.seed
	scen := experiment.ScenarioSubset(thin)
	var mit []fault.Scenario
	for i := 0; i < len(scen); i += 4 {
		mit = append(mit, scen[i])
	}
	return paperInputs{
		platform:     experiment.Glucosym(),
		patients:     patients,
		scenarios:    scen,
		mitScenarios: mit,
		suite:        suite,
	}
}

// mitigationMonitors are the Table VII rows.
var mitigationMonitors = []string{"CAWT", "DT", "MLP", "MPC"}

// paperOut is one pipeline's checked items plus what the metrics need.
type paperOut struct {
	items map[string]string
	// traces holds copies of the pipeline's trace sets, taken as each
	// stage produced them (replay later writes monitor verdicts into
	// the campaign's samples); digestTraces hashes them into items
	// once the pipeline is no longer being timed.
	traces map[string][]*trace.Trace
	// simCycles and simTime cover the pipeline's closed-loop simulation
	// stages (campaign, fault-free runs, mitigation baseline and reruns).
	simCycles int64
	simTime   time.Duration
	// stage durations by per-layer metric name.
	stages map[string]time.Duration
	// training traces and the suite, for the traced re-check of
	// threshold learning.
	train []*trace.Trace
	suite *experiment.Suite
}

// paperPipeline runs the cmd/experiments per-platform pipeline step by
// step. parallel 0 keeps every fleet at its default width.
func paperPipeline(in paperInputs, parallel int, sp *spans) (paperOut, error) {
	out := paperOut{
		items:  make(map[string]string),
		traces: make(map[string][]*trace.Trace),
		stages: make(map[string]time.Duration),
	}
	root := sp.begin("paper.pipeline", -1)
	defer sp.end(root)
	stage := func(name string, sim bool, fn func() error) error {
		d, err := sp.do(name, root, fn)
		out.stages[name] += d
		if sim {
			out.simTime += d
		}
		return err
	}
	cycles := func(traces []*trace.Trace) {
		for _, tr := range traces {
			out.simCycles += int64(tr.Len())
		}
	}
	campaign := func(scen []fault.Scenario) experiment.CampaignConfig {
		return experiment.CampaignConfig{
			Platform: in.platform, Patients: in.patients, Scenarios: scen, Parallel: parallel,
		}
	}
	var traces []*trace.Trace
	if err := stage("experiment.campaign_s", true, func() (err error) {
		traces, err = experiment.Run(campaign(in.scenarios))
		return err
	}); err != nil {
		return out, err
	}
	cycles(traces)
	out.traces["campaign.traces"] = copyTraces(traces)
	out.items["fig7a"] = digest(experiment.HazardCoverageByPatient(traces))
	out.items["fig7b"] = digest(experiment.TTHDistribution(traces))
	out.items["fig8"] = digest(experiment.CoverageByFaultAndBG(traces))

	folds := stllearn.Folds(traces, 4)
	train := stllearn.TrainingSet(folds, 0)
	test := folds[0]
	out.train = train

	var faultFree []*trace.Trace
	if err := stage("experiment.fault_free_s", true, func() (err error) {
		if parallel == 0 {
			faultFree, err = experiment.FaultFree(in.platform, in.patients, 0)
			return err
		}
		// FaultFree runs at the default width; this is the same call
		// with the width pinned.
		faultFree, err = experiment.Run(campaign(fault.FaultFreeScenarios(nil)))
		return err
	}); err != nil {
		return out, err
	}
	cycles(faultFree)
	out.traces["fault_free.traces"] = copyTraces(faultFree)

	var suite *experiment.Suite
	if err := stage("experiment.build_suite_s", false, func() (err error) {
		suite, err = experiment.BuildSuite(in.platform, train, faultFree, in.suite)
		return err
	}); err != nil {
		return out, err
	}
	out.suite = suite
	out.items["suite.thresholds"] = digest([]any{suite.PatientThresholds, suite.PopThresholds, suite.Lambda10, suite.Lambda90})

	// Tables V and VI: EvaluateAll is this loop; calling EvaluateMonitor
	// directly gives each monitor its own span.
	for _, name := range experiment.MonitorNames {
		var ev experiment.Eval
		if err := stage("experiment.evaluate_s."+name, false, func() (err error) {
			ev, err = suite.EvaluateMonitor(name, test)
			return err
		}); err != nil {
			return out, err
		}
		ev.StepTime = 0 // wall-clock, not an output
		out.items["table5_6."+name] = digest(ev)
	}

	// Table VII: a no-monitor baseline of the mitigation scenarios, then
	// one mitigated rerun per monitor.
	var baseline []*trace.Trace
	if err := stage("experiment.mitigation_baseline_s", true, func() (err error) {
		baseline, err = experiment.Run(campaign(in.mitScenarios))
		return err
	}); err != nil {
		return out, err
	}
	cycles(baseline)
	out.traces["table7.baseline"] = copyTraces(baseline)
	for _, name := range mitigationMonitors {
		var res experiment.MitigationResult
		if err := stage("experiment.mitigation_s."+name, true, func() (err error) {
			res, err = suite.EvaluateMitigation(name, baseline, campaign(in.mitScenarios))
			return err
		}); err != nil {
			return out, err
		}
		cycles(baseline) // the rerun simulates the baseline's sessions
		out.items["table7."+name] = digest(res)
	}

	var rows []experiment.PatientVsPopulation
	if err := stage("experiment.table8_s", false, func() (err error) {
		rows, err = suite.TableVIII(test, nil)
		return err
	}); err != nil {
		return out, err
	}
	for _, r := range rows {
		r.Specific.StepTime, r.Pop.StepTime = 0, 0
		out.items["table8."+r.Patient] = digest(r)
	}
	return out, nil
}

// digestTraces hashes the copied trace sets into the checked items.
func (o *paperOut) digestTraces() {
	for name, traces := range o.traces {
		o.items[name] = traceDigest(traces)
	}
}

// paperReference is the pipeline's output at Parallel 1.
func paperReference(in paperInputs) (map[string]string, error) {
	out, err := paperPipeline(in, 1, nil)
	out.digestTraces()
	return out.items, err
}

// copyTraces deep-copies a trace set.
func copyTraces(traces []*trace.Trace) []*trace.Trace {
	copies := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		c := *tr
		c.Samples = append([]trace.Sample(nil), tr.Samples...)
		copies[i] = &c
	}
	return copies
}

// relabel re-runs the fleet's hazard labelling on deep copies of the
// campaign traces and reports the time and whether every label matched.
func relabel(traces []*trace.Trace) (time.Duration, bool) {
	copies := copyTraces(traces)
	t0 := time.Now()
	risk.Labeler{}.LabelAll(copies)
	d := time.Since(t0)
	for i, tr := range traces {
		for j := range tr.Samples {
			if tr.Samples[j].Hazard != copies[i].Samples[j].Hazard {
				return d, false
			}
		}
	}
	return d, true
}

// relearn re-runs threshold learning on the suite's training set and
// reports the time and whether the thresholds equal the suite's.
func relearn(suite *experiment.Suite, train []*trace.Trace) (time.Duration, bool, error) {
	cfg := stllearn.Config{Loss: suite.Config.Loss}
	t0 := time.Now()
	per, err := stllearn.LearnPerPatient(scs.TableI(), train, cfg)
	if err != nil {
		return 0, false, err
	}
	pop, _, err := stllearn.Learn(scs.TableI(), train, cfg)
	if err != nil {
		return 0, false, err
	}
	d := time.Since(t0)
	return d, digest(per) == digest(suite.PatientThresholds) && digest(pop) == digest(suite.PopThresholds), nil
}

// runPaper measures whole pipelines back to back for opt.seconds.
func runPaper(opt options) (*report, error) {
	rep := newReport("paper")
	// Warm up, untimed, on a slice of the campaign so code, allocator
	// and scheduler state are settled before set-up and the first unit
	// are timed.
	in := paperInputsFor(opt)
	if _, err := experiment.Run(experiment.CampaignConfig{
		Platform: in.platform, Patients: []int{0}, Scenarios: in.scenarios[:min(16, len(in.scenarios))],
	}); err != nil {
		return nil, err
	}
	setup := timeInputs(3000, func() { in = paperInputsFor(opt) })

	var (
		lay *layers
		sp  *spans
	)
	if opt.trace {
		lay, sp = &layers{}, newSpans()
		in.platform = experimentPlatform(lay, in.platform)
	}

	var (
		us       costs
		items    []map[string]string
		simRate  []float64
		perLayer []map[string]float64
	)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(us) == 0 || time.Now().Before(deadline) {
		var before layerTotals
		if lay != nil {
			before = lay.totals()
		}
		var out paperOut
		u, err := measure(func() (err error) {
			out, err = paperPipeline(in, 0, sp)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.digestTraces()
		us = append(us, u)
		items = append(items, out.items)
		simRate = append(simRate, float64(out.simCycles)/out.simTime.Seconds())
		if lay != nil {
			lm, err := paperLayers(out, lay.totals().minus(before), u, sp, rep.check)
			if err != nil {
				return nil, err
			}
			perLayer = append(perLayer, lm)
		}
	}

	rss := peakRSSMB() // before the reference run adds its own
	ref, err := referenceFor(opt, func() (map[string]string, error) { return paperReference(in) })
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		rep.check.compare(it, ref)
	}
	rep.note("paper: %d pipelines, %d checked items each", len(us), len(items[0]))

	if opt.trace {
		setPerLayer(rep, perLayer)
		rep.set("tracing.wall_s", "s", us.median(wallOf))
		return rep, writeTrace(opt, sp, lay)
	}
	rep.setEndToEnd(setup, us.median(wallOf), median(simRate), us.median(cpuOf), rss)
	return rep, nil
}

// experimentPlatform decorates an experiment platform (structurally a
// fleet platform).
func experimentPlatform(lay *layers, p experiment.Platform) experiment.Platform {
	return experiment.Platform(lay.platform(fleet.Platform(p)))
}

// paperLayers turns one traced pipeline into per-layer values, and
// re-runs labelling and threshold learning on its outputs as checked,
// timed items.
func paperLayers(out paperOut, t layerTotals, u cost, sp *spans, chk *checker) (map[string]float64, error) {
	lm := engineLayers(t, out.simTime, u)
	for name, d := range out.stages {
		if name != "experiment.mitigation_baseline_s" {
			lm[name] = d.Seconds()
		}
	}
	var (
		d   time.Duration
		ok  bool
		err error
	)
	sp.do("risk.relabel", -1, func() error {
		d, ok = relabel(out.traces["campaign.traces"])
		return nil
	})
	chk.expect("risk.labels", ok)
	lm["risk.label_s"] = d.Seconds()
	if _, err = sp.do("stllearn.relearn", -1, func() (err error) {
		d, ok, err = relearn(out.suite, out.train)
		return err
	}); err != nil {
		return nil, err
	}
	chk.expect("stllearn.thresholds", ok)
	lm["stllearn.learn_s"] = d.Seconds()
	return lm, nil
}

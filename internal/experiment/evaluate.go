package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// Eval is one monitor's evaluation over a trace set.
type Eval struct {
	Monitor    string
	Sample     metrics.Confusion
	Simulation metrics.Confusion
	Reaction   metrics.ReactionStats
	// StepTime is the mean wall-clock cost of one monitor step
	// (Section V-E6's resource-utilization comparison): each trace's
	// replay time, summed over traces and divided by the steps. Traces
	// replay in parallel, so contention between workers for cores and
	// caches can inflate it over a one-worker replay.
	StepTime time.Duration

	// The richer verdict view, populated for margin-carrying monitors
	// (zero MarginSamples otherwise): per-rule alarm attribution and the
	// margin distribution, read from the same replayed verdicts as the
	// confusion matrices — no extra evaluation pass.
	//
	// RuleAttribution counts alarmed cycles by the verdict's arg-min
	// rule ID; MeanAlarmMargin averages the (negative) violation depth
	// over alarmed cycles; MeanSafeMargin averages the distance to the
	// nearest rule boundary over silent cycles.
	RuleAttribution map[int]int
	MeanAlarmMargin float64
	MeanSafeMargin  float64
	MarginSamples   int
}

// EvaluateMonitor replays a monitor over every trace (instantiated per
// patient), annotates alarms in place, and aggregates the paper's
// accuracy and timeliness metrics plus the rule/margin attribution the
// richer verdicts carry.
//
// Traces replay on up to GOMAXPROCS workers, each owning its own
// per-patient monitors (Replay resets a monitor before every trace, so
// which worker replays a trace cannot change its verdicts). The
// verdicts land in per-trace slots and are folded serially in trace
// order, so every sum keeps the order of a one-worker replay and the
// Eval is bit-identical at any worker count. On a constructor error
// the error of the earliest failing trace is returned.
func (s *Suite) EvaluateMonitor(name string, traces []*trace.Trace) (Eval, error) {
	verdicts := make([][]monitor.Verdict, len(traces))
	elapsed := make([]time.Duration, len(traces))
	errs := make([]error, len(traces))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(traces)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			monitors := make(map[string]monitor.Monitor)
			for i := int(next.Add(1)) - 1; i < len(traces); i = int(next.Add(1)) - 1 {
				tr := traces[i]
				m, ok := monitors[tr.PatientID]
				if !ok {
					var err error
					if m, err = s.NewMonitor(name, tr.PatientID); err != nil {
						errs[i] = fmt.Errorf("experiment: %s for %s: %w", name, tr.PatientID, err)
						continue
					}
					monitors[tr.PatientID] = m
				}
				start := time.Now()
				verdicts[i] = monitor.Replay(m, tr)
				elapsed[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Eval{}, err
		}
	}

	ev := Eval{Monitor: name, RuleAttribution: make(map[int]int)}
	var steps int
	var total time.Duration
	var alarmMarginSum, safeMarginSum float64
	var alarmMargins, safeMargins int
	for ti, tr := range traces {
		total += elapsed[ti]
		steps += tr.Len()
		for i := range tr.Samples {
			v := &verdicts[ti][i]
			tr.Samples[i].Alarm = v.Alarm
			tr.Samples[i].AlarmHazard = v.Hazard
			if v.Rule == 0 {
				continue // monitor carries no rule attribution
			}
			if v.Alarm {
				ev.RuleAttribution[v.Rule]++
				alarmMarginSum += v.Margin
				alarmMargins++
			} else {
				safeMarginSum += v.Margin
				safeMargins++
			}
		}

		ev.Sample.Add(metrics.SampleLevel(tr, 0))
		ev.Simulation.Add(metrics.SimulationLevel(tr))
	}
	ev.Reaction = metrics.ReactionTime(traces)
	if steps > 0 {
		ev.StepTime = total / time.Duration(steps)
	}
	ev.MarginSamples = alarmMargins + safeMargins
	if alarmMargins > 0 {
		ev.MeanAlarmMargin = alarmMarginSum / float64(alarmMargins)
	}
	if safeMargins > 0 {
		ev.MeanSafeMargin = safeMarginSum / float64(safeMargins)
	}
	return ev, nil
}

// EvaluateAll runs every named monitor over the trace set.
func (s *Suite) EvaluateAll(names []string, traces []*trace.Trace) ([]Eval, error) {
	if len(names) == 0 {
		names = MonitorNames
	}
	out := make([]Eval, 0, len(names))
	for _, name := range names {
		ev, err := s.EvaluateMonitor(name, traces)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// MitigationResult is one monitor's Table VII row.
type MitigationResult struct {
	Monitor string
	Outcome metrics.MitigationOutcome
}

// EvaluateMitigation reruns the campaign scenarios with the monitor in
// the loop and Algorithm 1 enabled, comparing against the baseline
// (no-monitor) traces of the same scenarios.
func (s *Suite) EvaluateMitigation(name string, baseline []*trace.Trace, cfg CampaignConfig) (MitigationResult, error) {
	cfg.Platform = s.Platform
	cfg.Mitigate = true
	cfg.NewMonitor = func(patientIdx int) (monitor.Monitor, error) {
		p, err := s.Platform.NewPatient(patientIdx)
		if err != nil {
			return nil, err
		}
		return s.NewMonitor(name, p.ID())
	}
	mitigated, err := Run(cfg)
	if err != nil {
		return MitigationResult{}, err
	}
	if len(mitigated) != len(baseline) {
		return MitigationResult{}, fmt.Errorf("experiment: mitigated %d traces vs baseline %d — configs must match",
			len(mitigated), len(baseline))
	}
	return MitigationResult{
		Monitor: name,
		Outcome: metrics.Mitigation(baseline, mitigated),
	}, nil
}

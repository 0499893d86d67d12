package monitor

import (
	"log"

	"repro/internal/closedloop"
	"repro/internal/trace"
)

// Monitor re-exports the closed-loop monitor contract for implementers.
type Monitor = closedloop.Monitor

// Checked passes a constructor's result on as a Monitor, with a true
// nil Monitor when err is non-nil. Returning a constructor's (*T, error)
// straight from a function whose result is (Monitor, error) would wrap
// its nil *T in a non-nil interface, so a caller that tests the monitor
// instead of the error would step a nil receiver.
func Checked[M Monitor](m M, err error) (Monitor, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Observation is the per-cycle monitor input.
type Observation = closedloop.Observation

// Verdict is the per-cycle monitor output.
type Verdict = closedloop.Verdict

// BasalSensitive is implemented by monitors whose verdicts depend on the
// loop's scheduled basal — Observation.Basal, or the step-0 PrevRate
// that Replay seeds from it. Replay warns loudly when such a monitor
// replays a trace recorded before the basal was persisted (Basal == 0):
// the observations it feeds then differ from what the live loop fed, and
// the replayed verdicts are not trustworthy.
type BasalSensitive interface {
	UsesBasal() bool
}

// replayWarnf is the warning hook for Replay diagnostics; tests override
// it to assert the warning fires.
var replayWarnf = log.Printf

// Replay drives a monitor over a recorded trace offline, returning the
// per-sample alarms. It mirrors exactly what the closed loop feeds the
// monitor online — including the step-0 PrevRate, which the live
// Stepper seeds from the patient's scheduled basal (not the first
// commanded rate), and Observation.Basal — so offline evaluation
// (Tables V and VI) agrees with online behavior. Traces recorded before
// the basal was persisted replay with Basal == 0; re-record them for
// basal-sensitive monitors (Replay warns when one replays such a trace).
func Replay(m Monitor, tr *trace.Trace) []Verdict {
	if tr.Basal == 0 {
		if bs, ok := m.(BasalSensitive); ok && bs.UsesBasal() {
			replayWarnf("monitor: WARNING: replaying a Basal==0 trace (patient %q, platform %q) "+
				"through basal-sensitive monitor %q — the trace predates basal persistence; "+
				"re-record it (trace.WriteCSV now stores the scheduled basal) or expect "+
				"verdicts to diverge from the live loop", tr.PatientID, tr.Platform, m.Name())
		}
	}
	m.Reset()
	out := make([]Verdict, tr.Len())
	prevRate := tr.Basal
	for i := range tr.Samples {
		s := &tr.Samples[i]
		obs := sampleObservation(s)
		obs.CycleMin, obs.PrevRate, obs.Basal = tr.CycleMin, prevRate, tr.Basal
		out[i] = m.Step(obs)
		prevRate = s.Delivered
	}
	return out
}

// sampleObservation is the part of an observation a recorded sample
// carries; the loop context (cycle length, previous rate, basal) is the
// caller's to fill.
func sampleObservation(s *trace.Sample) Observation {
	return Observation{
		Step: s.Step, TimeMin: s.TimeMin,
		CGM: s.CGM, BGPrime: s.BGPrime, IOB: s.IOB, IOBPrime: s.IOBPrime,
		Rate: s.Rate, Action: s.Action,
	}
}

// Annotate writes a monitor's replayed verdicts into the trace samples.
func Annotate(m Monitor, tr *trace.Trace) {
	verdicts := Replay(m, tr)
	for i := range tr.Samples {
		tr.Samples[i].Alarm = verdicts[i].Alarm
		tr.Samples[i].AlarmHazard = verdicts[i].Hazard
	}
}

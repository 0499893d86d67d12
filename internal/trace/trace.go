// Package trace defines the shared data model for closed-loop APS
// simulation traces: per-cycle samples, discrete control actions, hazard
// labels, and trace-level fault annotations.
//
// Every other package in this repository (simulators, controllers, fault
// injection, monitors, metrics) communicates through these types, so the
// package is deliberately dependency-free.
//
//fleetvet:deterministic
package trace

import (
	"fmt"
	"math"
)

// Action is the discrete control-action vocabulary of the paper
// (Section III-A1 and Table I): u1..u4.
type Action int

// Control actions u1..u4 from Table I of the paper.
const (
	// ActionUnknown marks a sample before the first classified command.
	ActionUnknown Action = iota
	// ActionDecrease (u1) decreases the insulin rate relative to the
	// previous command.
	ActionDecrease
	// ActionIncrease (u2) increases the insulin rate.
	ActionIncrease
	// ActionStop (u3) sets the insulin rate to zero.
	ActionStop
	// ActionKeep (u4) keeps the insulin rate unchanged.
	ActionKeep
)

// String returns the paper's name for the action (u1..u4).
func (a Action) String() string {
	switch a {
	case ActionDecrease:
		return "decrease_insulin"
	case ActionIncrease:
		return "increase_insulin"
	case ActionStop:
		return "stop_insulin"
	case ActionKeep:
		return "keep_insulin"
	default:
		return "unknown"
	}
}

// Short returns the compact u1..u4 notation used in Table I.
func (a Action) Short() string {
	switch a {
	case ActionDecrease:
		return "u1"
	case ActionIncrease:
		return "u2"
	case ActionStop:
		return "u3"
	case ActionKeep:
		return "u4"
	default:
		return "u?"
	}
}

// ClassifyAction maps a commanded insulin rate to the discrete action
// vocabulary by comparing it against the patient's scheduled basal rate:
// zero is stop_insulin (u3), a sub-basal temp rate decreases insulin
// (u1), an above-basal rate increases it (u2), and a rate at basal keeps
// it (u4). Classifying against the schedule rather than the previous
// command makes the action a stable description of the controller's
// intent — a small dose adjustment during recovery is not an
// "insulin decrease" in the hazard-analysis sense. Rates are in U/h;
// the tolerance absorbs rounding in the controller arithmetic.
func ClassifyAction(rate, basal float64) Action {
	const eps = 1e-6
	relTol := 0.02 * basal // 2% band counts as "keep"
	if relTol < eps {
		relTol = eps
	}
	switch {
	case rate <= eps:
		return ActionStop
	case math.Abs(rate-basal) <= relTol:
		return ActionKeep
	case rate < basal:
		return ActionDecrease
	default:
		return ActionIncrease
	}
}

// HazardType identifies the safety hazard of Section IV-B.
type HazardType int

// Hazard types from the paper's hazard analysis.
const (
	// HazardNone marks a safe sample.
	HazardNone HazardType = iota
	// HazardH1 is "too much insulin infused" leading toward hypoglycemia
	// (accident A1).
	HazardH1
	// HazardH2 is "too little insulin infused" leading toward
	// hyperglycemia (accident A2).
	HazardH2
)

// String implements fmt.Stringer.
func (h HazardType) String() string {
	switch h {
	case HazardH1:
		return "H1"
	case HazardH2:
		return "H2"
	default:
		return "none"
	}
}

// Sample is one control-cycle record of a closed-loop simulation.
// BG is the simulator's true plasma glucose; CGM is the sensor value the
// controller and monitor observe. Derivatives are per-minute finite
// differences of the observed signals.
type Sample struct {
	Step      int     // control-cycle index, 0-based
	TimeMin   float64 // minutes since simulation start
	BG        float64 // true blood glucose, mg/dL
	CGM       float64 // sensed glucose, mg/dL
	IOB       float64 // insulin on board estimate, U
	BGPrime   float64 // dBG/dt from CGM differences, mg/dL/min
	IOBPrime  float64 // dIOB/dt, U/min
	Rate      float64 // insulin rate commanded by the controller, U/h
	Delivered float64 // insulin rate actually delivered after mitigation, U/h
	Action    Action  // classification of Rate vs the previous command

	FaultActive bool       // true while the injected fault is live
	Hazard      HazardType // ground-truth hazard label (risk-index based)
	Alarm       bool       // monitor alarm at this step
	AlarmHazard HazardType // hazard type predicted by the monitor
	Mitigated   bool       // true if mitigation replaced the command
}

// FaultInfo annotates a trace with the fault-injection scenario that
// produced it. A zero FaultInfo means a fault-free run.
type FaultInfo struct {
	Name      string // e.g. "max:glucose"
	Kind      string // fault kind, e.g. "max"
	Target    string // perturbed controller variable, e.g. "glucose"
	StartStep int    // first control cycle the fault is active
	Duration  int    // number of control cycles the fault stays active
	Value     float64
}

// Active reports whether the fault is live at the given control step.
func (f FaultInfo) Active(step int) bool {
	if f.Name == "" || f.Duration <= 0 {
		return false
	}
	return step >= f.StartStep && step < f.StartStep+f.Duration
}

// Trace is a full closed-loop simulation run.
type Trace struct {
	PatientID string
	Platform  string // e.g. "glucosym/openaps"
	InitialBG float64
	CycleMin  float64 // control-cycle length in minutes
	// Basal is the patient's scheduled basal rate, U/h. Monitors observe
	// it live (Observation.Basal and the step-0 PrevRate seed), so it
	// must persist with the trace for offline replay to feed monitors
	// exactly what the closed loop fed them online. Traces recorded
	// before this field round-trip with Basal == 0.
	Basal   float64
	Fault   FaultInfo
	Samples []Sample
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// Faulty reports whether this trace had a fault injected.
func (t *Trace) Faulty() bool { return t.Fault.Name != "" }

// Hazardous reports whether any sample carries a hazard label.
func (t *Trace) Hazardous() bool {
	for i := range t.Samples {
		if t.Samples[i].Hazard != HazardNone {
			return true
		}
	}
	return false
}

// FirstHazardStep returns the step index of the first hazardous sample,
// or -1 if the trace is hazard-free.
func (t *Trace) FirstHazardStep() int {
	for i := range t.Samples {
		if t.Samples[i].Hazard != HazardNone {
			return t.Samples[i].Step
		}
	}
	return -1
}

// FirstAlarmStep returns the step of the first monitor alarm, or -1.
func (t *Trace) FirstAlarmStep() int {
	for i := range t.Samples {
		if t.Samples[i].Alarm {
			return t.Samples[i].Step
		}
	}
	return -1
}

// DominantHazard returns the hazard type with the most labeled samples,
// breaking ties toward H1 (the more acute hazard).
func (t *Trace) DominantHazard() HazardType {
	var h1, h2 int
	for i := range t.Samples {
		switch t.Samples[i].Hazard {
		case HazardH1:
			h1++
		case HazardH2:
			h2++
		}
	}
	switch {
	case h1 == 0 && h2 == 0:
		return HazardNone
	case h1 >= h2:
		return HazardH1
	default:
		return HazardH2
	}
}

// BGSeries returns the true-BG series of the trace.
func (t *Trace) BGSeries() []float64 {
	out := make([]float64, len(t.Samples))
	for i := range t.Samples {
		out[i] = t.Samples[i].BG
	}
	return out
}

// CGMSeries returns the sensed-glucose series of the trace.
func (t *Trace) CGMSeries() []float64 {
	out := make([]float64, len(t.Samples))
	for i := range t.Samples {
		out[i] = t.Samples[i].CGM
	}
	return out
}

// TimeToHazardMin implements the TTH metric of Section V-D: minutes from
// fault activation to the first hazardous sample. The boolean result is
// false when the trace is hazard-free. Fault-free hazardous traces return
// the time from simulation start (tf = 0). A negative TTH means the hazard
// predates the fault (Section V-E1 observes 7.1% of such runs).
func (t *Trace) TimeToHazardMin() (float64, bool) {
	h := t.FirstHazardStep()
	if h < 0 {
		return 0, false
	}
	tf := 0
	if t.Faulty() {
		tf = t.Fault.StartStep
	}
	return float64(h-tf) * t.CycleMin, true
}

// Validate performs structural sanity checks and returns a descriptive
// error for the first violation found.
func (t *Trace) Validate() error {
	if !(t.CycleMin > 0) || math.IsInf(t.CycleMin, 1) {
		return fmt.Errorf("trace %s/%s: cycle length %v is not finite and positive", t.Platform, t.PatientID, t.CycleMin)
	}
	for i := range t.Samples {
		s := &t.Samples[i]
		if s.Step != i {
			return fmt.Errorf("trace %s/%s: sample %d has step %d", t.Platform, t.PatientID, i, s.Step)
		}
		if math.IsNaN(s.BG) || math.IsInf(s.BG, 0) {
			return fmt.Errorf("trace %s/%s: sample %d has invalid BG %v", t.Platform, t.PatientID, i, s.BG)
		}
		if s.BG < 0 {
			return fmt.Errorf("trace %s/%s: sample %d has negative BG %v", t.Platform, t.PatientID, i, s.BG)
		}
		if s.Rate < 0 || s.Delivered < 0 {
			return fmt.Errorf("trace %s/%s: sample %d has negative insulin rate", t.Platform, t.PatientID, i)
		}
	}
	return nil
}

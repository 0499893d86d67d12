// Package closedloop wires a virtual patient, an APS controller, an
// optional fault injector, and an optional safety monitor into the
// closed-loop simulation of Fig. 5a: 150 five-minute control cycles
// (about 12 hours) starting from a configurable initial glucose.
//
//fleetvet:deterministic
package closedloop

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/risk"
	"repro/internal/trace"
)

// Monitor is the safety-monitor interface the loop drives. It matches
// internal/monitor.Monitor structurally; closedloop declares its own copy
// to avoid a dependency cycle (monitors are tested against the loop).
type Monitor interface {
	Name() string
	Reset()
	Step(obs Observation) Verdict
}

// Observation is the monitor's view of one control cycle: the clean
// sensor value, the monitor's own derived estimates, and the controller's
// commanded action (Section II: the monitor wraps the controller's
// input-output interface).
type Observation struct {
	Step     int
	TimeMin  float64
	CycleMin float64
	CGM      float64 // clean sensed glucose, mg/dL
	BGPrime  float64 // dCGM/dt, mg/dL/min
	IOB      float64 // monitor-side net IOB estimate, U
	IOBPrime float64 // dIOB/dt, U/min
	Rate     float64 // controller's commanded rate, U/h
	PrevRate float64 // previously delivered rate, U/h
	Action   trace.Action
	Basal    float64 // patient's scheduled basal, U/h
}

// Verdict is the monitor's decision for the cycle. Beyond the boolean
// alarm, margin-carrying monitors (the streaming CAWT/CAWOT) report the
// signed robustness of the decision so downstream consumers — Algorithm 1
// margin scaling, fleet hazard telemetry, the evaluation tables — read
// one evaluation instead of re-running the rules.
type Verdict struct {
	Alarm  bool
	Hazard trace.HazardType // predicted hazard class when Alarm
	// Margin is the signed robustness margin of the verdict: positive is
	// the distance to the nearest rule boundary, negative the depth of
	// the worst violated rule. Zero for monitors that do not compute
	// margins (ML baselines, guideline, MPC).
	Margin float64
	// Rule is the Safety Context Specification rule ID attaining Margin
	// (the violated rule on an alarm, the tightest rule otherwise);
	// 0 when the monitor has no rule attribution.
	Rule int
	// Confidence is the monitor's confidence in the verdict in [0, 1]:
	// margin-carrying monitors report |Margin|/(1+|Margin|), ML monitors
	// their predicted-class probability; 0 when unknown.
	Confidence float64
}

// Pump bounds the actuator.
type Pump struct {
	MaxRate float64 // hardware ceiling, U/h
}

// DefaultPump is a typical insulin pump limit.
var DefaultPump = Pump{MaxRate: 30}

// Patient is the virtual-patient surface the loop needs; satisfied by
// *glucosym.Patient and *uvapadova.Patient.
type Patient interface {
	ID() string
	Step(insulinUPerH, carbGPerMin, dtMin float64)
	BG() float64
	CGM() float64
	Basal() float64
	Reset(initialBG float64)
}

// MitigationConfig enables Algorithm 1: when the monitor raises an alarm
// the unsafe command is replaced — zero insulin for a predicted H1,
// a fixed maximum insulin rate for a predicted H2 — until the monitor
// stops alarming.
type MitigationConfig struct {
	Enabled bool
	// MaxInsulin is the corrective rate for H2 mitigation, U/h. Zero
	// selects 4x the patient basal (the temp-basal ceiling), the fixed
	// value used for the paper's fair cross-monitor comparison.
	MaxInsulin float64
	// Corrective optionally selects a context-dependent corrective rate
	// (the f(ρ(µ(x)), u) of Algorithm 1, e.g. an scs.HMS). Returning
	// false falls back to the fixed strategy above.
	Corrective func(hazard trace.HazardType, obs Observation) (float64, bool)
	// ScaleByMargin blends the corrective rate with the issued command in
	// proportion to the verdict's violation depth: the delivered rate is
	//
	//	rate + min(1, -Margin/MarginRef) · (corrective - rate)
	//
	// so a shallow boundary violation gets a gentle nudge and a deep one
	// the full Algorithm 1 action. Verdicts without margin information
	// (Margin >= 0 on an alarm) apply the full correction, preserving the
	// fixed behavior for non-margin monitors. The scaling is pure
	// arithmetic on the verdict, so fleet results remain deterministic at
	// any parallelism level. Default off.
	ScaleByMargin bool
	// MarginRef is the violation depth (robustness units) at which the
	// scaled correction saturates at the full Algorithm 1 action.
	// Zero selects 1.
	MarginRef float64
}

// Config assembles one simulation run.
type Config struct {
	Platform   string // label recorded on the trace, e.g. "glucosym/openaps"
	Steps      int    // control cycles (default 150)
	CycleMin   float64
	InitialBG  float64
	Patient    Patient
	Controller control.Controller
	// Fault is a single controller-variable injection (nil for a
	// fault-free run), shorthand for a Plan holding just that injection:
	// the loop compiles it into one before the run starts.
	Fault *fault.Fault
	// Plan is a compiled scenario program: injections plus the timeline
	// disturbances (meals, exercise, CGM dropout/bias, pump occlusion)
	// the enum Fault cannot express. Mutually exclusive with Fault; its
	// horizon must match Steps/CycleMin.
	Plan       *fault.Plan
	Monitor    Monitor // nil to run without a safety monitor
	Mitigation MitigationConfig
	Pump       Pump
	Labeler    risk.Labeler
	// DIA/PeakT parameterize the monitor-side IOB estimate.
	DIA   float64
	PeakT float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Patient == nil {
		return c, fmt.Errorf("closedloop: nil patient")
	}
	if c.Controller == nil {
		return c, fmt.Errorf("closedloop: nil controller")
	}
	if c.Steps == 0 {
		c.Steps = 150
	}
	if c.Steps < 1 {
		return c, fmt.Errorf("closedloop: invalid step count %d", c.Steps)
	}
	if c.CycleMin == 0 {
		c.CycleMin = 5
	}
	if c.CycleMin <= 0 {
		return c, fmt.Errorf("closedloop: invalid cycle length %v", c.CycleMin)
	}
	if c.Fault != nil {
		if c.Plan != nil {
			return c, fmt.Errorf("closedloop: Fault and Plan are mutually exclusive")
		}
		pl, err := fault.Program{Segments: []fault.Segment{c.Fault.Segment()}}.Compile(c.Steps, c.CycleMin)
		if err != nil {
			return c, fmt.Errorf("closedloop: %w", err)
		}
		c.Fault, c.Plan = nil, pl
	}
	if c.Plan != nil {
		if c.Plan.Steps() != c.Steps || c.Plan.CycleMin() != c.CycleMin {
			return c, fmt.Errorf("closedloop: plan compiled for %d steps of %v min, loop runs %d of %v",
				c.Plan.Steps(), c.Plan.CycleMin(), c.Steps, c.CycleMin)
		}
		if c.InitialBG == 0 {
			c.InitialBG = c.Plan.InitialBG()
		}
	}
	if c.InitialBG == 0 {
		c.InitialBG = 120
	}
	if c.Pump.MaxRate == 0 {
		c.Pump = DefaultPump
	}
	if c.Mitigation.Enabled && c.Mitigation.MaxInsulin == 0 {
		c.Mitigation.MaxInsulin = 4 * c.Patient.Basal()
	}
	if c.Mitigation.ScaleByMargin {
		if c.Mitigation.MarginRef < 0 {
			// A negative reference would invert the blend and extrapolate
			// delivery away from the corrective action — more insulin on a
			// too-much-insulin alarm.
			return c, fmt.Errorf("closedloop: negative MarginRef %v", c.Mitigation.MarginRef)
		}
		if c.Mitigation.MarginRef == 0 {
			c.Mitigation.MarginRef = 1
		}
	}
	if c.DIA == 0 {
		c.DIA = 300
	}
	if c.PeakT == 0 {
		c.PeakT = 75
	}
	return c, nil
}

// Run executes one closed-loop simulation and returns the labeled trace.
// It drives a Stepper to completion; the fleet engine uses the same
// Stepper to interleave many simulations as concurrent sessions.
func Run(cfg Config) (*trace.Trace, error) {
	st, err := NewStepper(cfg, StepperOptions{})
	if err != nil {
		return nil, err
	}
	for !st.Done() {
		st.Step()
	}
	return st.Finish(), nil
}

// mitigate implements the corrective action of Algorithm 1.
func mitigate(h trace.HazardType, m MitigationConfig, p Pump) float64 {
	switch h {
	case trace.HazardH1:
		return 0 // too much insulin on the way: cut it
	case trace.HazardH2:
		return clampRate(m.MaxInsulin, p) // too little insulin: add the fixed max
	default:
		return 0
	}
}

func clampRate(rate float64, p Pump) float64 {
	if rate < 0 || math.IsNaN(rate) {
		return 0
	}
	if rate > p.MaxRate {
		return p.MaxRate
	}
	return rate
}

package fault

import (
	"fmt"
	"strings"

	"repro/internal/control"
	"repro/internal/trace"
)

// Kind enumerates the fault/attack types of Table II. Every switch
// over it must cover every kind (fleetvet's exhaustive pass), so a new
// fault type cannot silently fall through an injection or labeling
// switch.
//
//fleetvet:exhaustive
type Kind int

// Fault kinds from Table II of the paper.
const (
	// KindTruncate zeroes the target variable (availability attack).
	KindTruncate Kind = iota + 1
	// KindHold freezes the target at its value when the fault starts
	// (DoS attack / stale data).
	KindHold
	// KindMax forces the target to its maximum allowed value
	// (integrity attack).
	KindMax
	// KindMin forces the target to its minimum allowed value.
	KindMin
	// KindAdd adds a constant offset (memory fault / bit flip).
	KindAdd
	// KindSub subtracts a constant offset.
	KindSub
)

// Kinds lists all fault kinds in a stable order.
var Kinds = []Kind{KindTruncate, KindHold, KindMax, KindMin, KindAdd, KindSub}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTruncate:
		return "truncate"
	case KindHold:
		return "hold"
	case KindMax:
		return "max"
	case KindMin:
		return "min"
	case KindAdd:
		return "add"
	case KindSub:
		return "sub"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == strings.ToLower(s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// Fault describes one injection scenario.
type Fault struct {
	Kind      Kind
	Target    string  // controller variable name, e.g. "glucose", "iob", "rate"
	Value     float64 // magnitude for max/min/add/sub
	StartStep int     // first active control cycle
	Duration  int     // active cycles
}

// Name returns a compact scenario label, e.g. "max:glucose".
func (f Fault) Name() string {
	return f.Kind.String() + ":" + f.Target
}

// Info converts the fault to a trace annotation.
func (f Fault) Info() trace.FaultInfo {
	return trace.FaultInfo{
		Name:      f.Name(),
		Kind:      f.Kind.String(),
		Target:    f.Target,
		StartStep: f.StartStep,
		Duration:  f.Duration,
		Value:     f.Value,
	}
}

// Segment returns the fault as a scenario-program injection segment.
func (f Fault) Segment() Segment {
	return Segment{
		Kind: SegInject, Fault: f.Kind, Target: f.Target, Value: f.Value,
		Start: f.StartStep, Duration: f.Duration,
	}
}

// Active reports whether the fault is live at the given step.
func (f Fault) Active(step int) bool {
	return f.Duration > 0 && step >= f.StartStep && step < f.StartStep+f.Duration
}

// Validate checks the scenario for structural errors.
func (f Fault) Validate() error {
	switch f.Kind {
	case KindTruncate, KindHold, KindMax, KindMin, KindAdd, KindSub:
	default:
		return fmt.Errorf("fault: invalid kind %d", int(f.Kind))
	}
	if f.Target == "" {
		return fmt.Errorf("fault: empty target")
	}
	if f.StartStep < 0 || f.Duration <= 0 {
		return fmt.Errorf("fault: invalid window start=%d duration=%d", f.StartStep, f.Duration)
	}
	return nil
}

// stageFor returns the perturbation stage at which the target variable is
// live: the controller output ("rate") exists only after the decision,
// everything else before it.
func stageFor(target string) control.Stage {
	if target == "rate" {
		return control.StagePost
	}
	return control.StagePre
}

// Injector applies one Fault to a controller via its perturbation hook.
// The caller advances the step counter once per control cycle.
type Injector struct {
	fault   Fault
	step    int
	held    float64
	holdSet bool
}

// NewInjector validates the scenario and returns an injector.
func NewInjector(f Fault) (*Injector, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &Injector{fault: f}, nil
}

// Fault returns the injected scenario.
func (in *Injector) Fault() Fault { return in.fault }

// BeginStep sets the current control-cycle index. Call once per cycle
// before the controller decides.
func (in *Injector) BeginStep(step int) { in.step = step }

// ActiveNow reports whether the fault is live at the current step.
func (in *Injector) ActiveNow() bool { return in.fault.Active(in.step) }

// Perturb is the control.PerturbFunc for this injector.
func (in *Injector) Perturb(stage control.Stage, vars map[string]*float64) {
	if !in.ActiveNow() {
		in.holdSet = false
		return
	}
	if stage != stageFor(in.fault.Target) {
		return
	}
	v, ok := vars[in.fault.Target]
	if !ok {
		return // controller does not expose this variable
	}
	switch in.fault.Kind {
	case KindTruncate:
		*v = 0
	case KindHold:
		if !in.holdSet {
			in.held = *v
			in.holdSet = true
		}
		*v = in.held
	case KindMax, KindMin:
		*v = in.fault.Value
	case KindAdd:
		*v += in.fault.Value
	case KindSub:
		*v -= in.fault.Value
	}
}

// Reset rewinds the injector for a fresh run.
func (in *Injector) Reset() {
	in.step = 0
	in.held = 0
	in.holdSet = false
}

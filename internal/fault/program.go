package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// SegKind enumerates the typed segments a scenario program timeline is
// built from. Every switch over it must cover every kind (fleetvet's
// exhaustive pass), so a new segment type cannot silently fall through
// the compiler, the validator, or the text codec.
//
//fleetvet:exhaustive
type SegKind int

// Segment kinds of the scenario program IR.
const (
	// SegInject perturbs a named controller variable for a window of
	// control cycles — the Table II faults (Fault/Target/Value).
	SegInject SegKind = iota + 1
	// SegDropout freezes the sensed CGM at its last value for a window
	// (sensor dropout: the loop keeps seeing stale glucose).
	SegDropout
	// SegBiasRamp adds a linearly growing bias to the sensed CGM,
	// reaching Value mg/dL at the end of the window (drifting sensor
	// calibration).
	SegBiasRamp
	// SegMeal ingests Value grams of carbohydrate spread uniformly over
	// the window (unannounced meal disturbance).
	SegMeal
	// SegExercise raises peripheral glucose clearance by Value per
	// minute for the window (exercise disturbance).
	SegExercise
	// SegOcclusion blocks the pump for the window: the controller
	// believes its commanded insulin was delivered, the patient
	// receives none.
	SegOcclusion
	// SegInitBG sets the run's initial glucose to Value mg/dL
	// (an initial-condition setter, not a timeline window).
	SegInitBG
)

// SegKinds lists all segment kinds in a stable order.
var SegKinds = []SegKind{SegInject, SegDropout, SegBiasRamp, SegMeal, SegExercise, SegOcclusion, SegInitBG}

// String implements fmt.Stringer; the names double as the text
// encoding's segment keywords.
func (k SegKind) String() string {
	switch k {
	case SegInject:
		return "inject"
	case SegDropout:
		return "dropout"
	case SegBiasRamp:
		return "bias"
	case SegMeal:
		return "meal"
	case SegExercise:
		return "exercise"
	case SegOcclusion:
		return "occlude"
	case SegInitBG:
		return "init"
	default:
		return fmt.Sprintf("segkind(%d)", int(k))
	}
}

// ParseSegKind is the inverse of SegKind.String.
func ParseSegKind(s string) (SegKind, error) {
	for _, k := range SegKinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown segment kind %q", s)
}

// MarshalJSON encodes the segment kind as its keyword string.
func (k SegKind) MarshalJSON() ([]byte, error) {
	switch k {
	case SegInject, SegDropout, SegBiasRamp, SegMeal, SegExercise, SegOcclusion, SegInitBG:
		return json.Marshal(k.String())
	default:
		return nil, fmt.Errorf("fault: cannot marshal invalid segment kind %d", int(k))
	}
}

// UnmarshalJSON decodes a segment-kind keyword string.
func (k *SegKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseSegKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// MarshalJSON encodes the fault kind as its Table II name.
func (k Kind) MarshalJSON() ([]byte, error) {
	switch k {
	case KindTruncate, KindHold, KindMax, KindMin, KindAdd, KindSub:
		return json.Marshal(k.String())
	default:
		return nil, fmt.Errorf("fault: cannot marshal invalid kind %d", int(k))
	}
}

// UnmarshalJSON decodes a Table II fault-kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Segment is one typed entry of a scenario program timeline. The field
// set is flat and tagged by Kind: Fault/Target apply to SegInject only;
// Value is the kind-specific magnitude (injected value, bias height,
// meal grams, exercise clearance, initial BG); Start and Duration bound
// the active window in control cycles (unused by SegInitBG).
type Segment struct {
	Kind     SegKind `json:"kind"`
	Fault    Kind    `json:"fault,omitempty"`
	Target   string  `json:"target,omitempty"`
	Value    float64 `json:"value,omitempty"`
	Start    int     `json:"start,omitempty"`
	Duration int     `json:"dur,omitempty"`
}

// Active reports whether the segment's window covers the given control
// cycle (always false for SegInitBG, which is not a timeline window).
func (s Segment) Active(step int) bool {
	if s.Kind == SegInitBG {
		return false
	}
	return s.Duration > 0 && step >= s.Start && step < s.Start+s.Duration
}

// Validate checks the segment for structural errors.
func (s Segment) Validate() error {
	if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
		return fmt.Errorf("fault: segment %s: non-finite value", s.Kind)
	}
	window := func() error {
		if s.Start < 0 || s.Duration <= 0 {
			return fmt.Errorf("fault: segment %s: invalid window start=%d dur=%d", s.Kind, s.Start, s.Duration)
		}
		return nil
	}
	switch s.Kind {
	case SegInject:
		return Fault{Kind: s.Fault, Target: s.Target, Value: s.Value, StartStep: s.Start, Duration: s.Duration}.Validate()
	case SegDropout, SegOcclusion:
		if s.Value != 0 {
			return fmt.Errorf("fault: segment %s: takes no value", s.Kind)
		}
		return window()
	case SegBiasRamp:
		if s.Value == 0 {
			return fmt.Errorf("fault: segment bias: zero ramp height")
		}
		return window()
	case SegMeal:
		if s.Value <= 0 {
			return fmt.Errorf("fault: segment meal: non-positive grams %v", s.Value)
		}
		return window()
	case SegExercise:
		if s.Value <= 0 {
			return fmt.Errorf("fault: segment exercise: non-positive intensity %v", s.Value)
		}
		return window()
	case SegInitBG:
		if s.Value <= 0 {
			return fmt.Errorf("fault: segment init: non-positive bg %v", s.Value)
		}
		if s.Start != 0 || s.Duration != 0 {
			return fmt.Errorf("fault: segment init: takes no window")
		}
		return nil
	default:
		return fmt.Errorf("fault: invalid segment kind %d", int(s.Kind))
	}
}

// Program is a scenario program: a named, ordered timeline of typed
// segments. It is the scenario currency of every layer above the
// injector — fleet.Config.Scenarios, fleet.AdmitSpec, fleetd tenant
// specs, and the fleetsim scenario file all carry Programs. Compile
// turns a program into the flat per-step Plan the steppers execute.
type Program struct {
	// Name labels the program in traces and corpora. It must be a
	// single token (no whitespace); empty names are allowed and format
	// as "-".
	Name string `json:"name,omitempty"`
	// Segments is the ordered timeline.
	Segments []Segment `json:"segments"`
}

// Validate checks every segment and the program-level constraints: at
// most one initial-condition setter, and a single-token name.
func (p Program) Validate() error {
	if strings.ContainsAny(p.Name, " \t\n\r#") {
		return fmt.Errorf("fault: program name %q contains whitespace or '#'", p.Name)
	}
	inits := 0
	for i, s := range p.Segments {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("fault: program %q segment %d: %w", p.Name, i, err)
		}
		if s.Kind == SegInitBG {
			inits++
		}
	}
	if inits > 1 {
		return fmt.Errorf("fault: program %q declares %d initial-BG setters (max one)", p.Name, inits)
	}
	return nil
}

// InitialBG returns the program's initial-condition setter value, or 0
// when the program leaves the initial glucose at the platform default.
func (p Program) InitialBG() float64 {
	for _, s := range p.Segments {
		if s.Kind == SegInitBG {
			return s.Value
		}
	}
	return 0
}

// Key returns the canonical identity of the program — its canonical
// text encoding — used for duplicate detection in fleet.Config.Validate
// and fleetd tenant-spec validation.
func (p Program) Key() string { return p.Format() }

// Program bridges the legacy enum scenario to the IR: an initial-BG
// setter (when the scenario pins one) followed by the single injection
// window (when the scenario carries a fault). The bridged program
// compiles to a plan that executes byte-identically to the legacy
// injector path.
func (sc Scenario) Program() Program {
	p := Program{Name: scenarioName(sc)}
	if sc.InitialBG != 0 {
		p.Segments = append(p.Segments, Segment{Kind: SegInitBG, Value: sc.InitialBG})
	}
	if sc.Fault.Duration > 0 {
		p.Segments = append(p.Segments, sc.Fault.Segment())
	}
	return p
}

// scenarioName derives a stable single-token label for a bridged legacy
// scenario, e.g. "max:glucose/s10d120/bg160" or "baseline/bg120".
func scenarioName(sc Scenario) string {
	var b strings.Builder
	if sc.Fault.Duration > 0 {
		fmt.Fprintf(&b, "%s/s%dd%d", sc.Fault.Name(), sc.Fault.StartStep, sc.Fault.Duration)
	} else {
		b.WriteString("baseline")
	}
	if sc.InitialBG != 0 {
		fmt.Fprintf(&b, "/bg%g", sc.InitialBG)
	}
	return b.String()
}

// Programs bridges a legacy scenario slice to IR programs, preserving
// order.
func Programs(scs []Scenario) []Program {
	out := make([]Program, len(scs))
	for i, sc := range scs {
		out[i] = sc.Program()
	}
	return out
}

// CampaignPrograms is the paper's full 882-per-patient campaign matrix
// emitted as IR programs: the single generator the legacy enum matrix
// reduces to. Campaign(nil) bridged through Programs yields exactly
// this slice.
func CampaignPrograms(initialBGs []float64) []Program {
	return Programs(Campaign(initialBGs))
}

// FaultFreePrograms returns one fault-free program per initial BG, the
// IR form of FaultFreeScenarios.
func FaultFreePrograms(initialBGs []float64) []Program {
	return Programs(FaultFreeScenarios(initialBGs))
}

package scs

import "repro/internal/trace"

// StreamVerdict is the per-cycle result of evaluating a rule set
// incrementally: satisfaction, the raw STL minimum across rule bodies,
// and the signed rule margin with its arg-min rule and hazard
// attribution. It is the single evaluation the streaming CAWT monitor,
// Algorithm 1 margin scaling, and fleet hazard telemetry all read from.
type StreamVerdict struct {
	// Sat is true when every rule body held at the pushed sample.
	Sat bool
	// MinRobust is the minimum STL robustness across all rule bodies
	// (the quantitative semantics of the Eq. 1 implication); WorstRule
	// is the ID of the rule attaining it. Note that a violated
	// forbidden-action rule bottoms out at 0 here — the action equality
	// atom has zero robustness at the boundary — which is why Margin
	// below exists.
	MinRobust float64
	WorstRule int
	// Margin is the signed rule margin: with Sat it equals MinRobust
	// (distance to the nearest unsafe-control-action boundary), and on a
	// violation it is minus the violated rule's antecedent robustness —
	// how deep the state sits inside the unsafe context — so alarms carry
	// a usable severity. Rule is the ID of the rule attaining Margin.
	Margin float64
	Rule   int
	// Hazard is the predicted hazard class over the violated rules
	// (H1 wins ties, being the acute hazard); HazardNone when Sat.
	Hazard trace.HazardType
}

// StreamSet renders one session's Safety Context Specification rule
// bodies (the formulas under G[t0,te] in Eq. 1) through the incremental
// streaming STL engine: it is a one-lane BatchStreamSet. The rules'
// antecedents compile into one hash-consed stl group — identical
// subformulas (shared context atoms, shared windows) evaluate once per
// cycle no matter how many rules contain them — and the structurally
// fixed consequent (the u == action equality, per Rule.Consequent)
// folds into the same push as inline arithmetic, so one evaluation
// yields satisfaction, the STL body robustness, and the signed rule
// margin. Pushes are O(1) amortized per rule and total state is bounded
// by the rules' window lengths, never by session length, so a StreamSet
// can stay attached to a continuous serving session forever.
type StreamSet struct {
	batch *BatchStreamSet
	lane  [1]int // the one lane every push names
	state [1]State
	out   [1]StreamVerdict
}

// NewStreamSet compiles every rule body under its threshold at sampling
// period dtMin minutes (nil thresholds select the rules' CAWOT
// defaults). Table I bodies are pure state predicates, but the
// compilation accepts any past-only rule rendering (e.g. Since-based
// mitigation specifications).
func NewStreamSet(rules []Rule, th Thresholds, p Params, dtMin float64) (*StreamSet, error) {
	batch, err := NewBatchStreamSet(rules, th, p, dtMin, 1)
	if err != nil {
		return nil, err
	}
	return &StreamSet{batch: batch}, nil
}

// Rules returns the compiled rule set.
func (ss *StreamSet) Rules() []Rule { return ss.batch.Rules() }

// Len returns the number of samples pushed.
func (ss *StreamSet) Len() int { return ss.batch.LaneLen(0) }

// Push feeds one control cycle's context state to every rule stream and
// returns the aggregate verdict. Alarm, STL robustness, signed margin,
// and rule attribution all come from this single incremental
// evaluation.
//
//fleetvet:noalloc
func (ss *StreamSet) Push(s State) (StreamVerdict, error) {
	ss.state[0] = s
	if err := ss.batch.PushLanes(ss.lane[:], ss.state[:], ss.out[:]); err != nil {
		return StreamVerdict{}, err
	}
	return ss.out[0], nil
}

// Fired returns the IDs of the rules violated at the last push, in rule
// order. The slice is reused by the next Push; callers that retain it
// must copy.
func (ss *StreamSet) Fired() []int { return ss.batch.Fired(0) }

// StateSamples returns the total buffered per-sample entries across the
// rule set's unique operator nodes (hash-consed subformulas count once)
// — the quantity that must stay O(window) regardless of session length.
func (ss *StreamSet) StateSamples() int { return ss.batch.StateSamples() }

// Reset clears all rule stream state.
func (ss *StreamSet) Reset() { ss.batch.Reset() }

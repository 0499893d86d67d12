package scs

import (
	"fmt"

	"repro/internal/stl"
)

// BatchStreamSet evaluates a Safety Context Specification across any
// number of session lanes in one push: the rules' antecedents compile
// into a single hash-consed stl.BatchStreamGroup whose per-node state
// is a [lanes]-wide vector, and the structurally fixed consequent folds
// inline per lane. One PushLanes per control cycle yields every live
// session's StreamVerdict while dispatch, push guards, and rule loops
// amortize across the active lanes. Lanes reset independently, so a
// fleet shard recycles a completed session's lane without disturbing
// its neighbors. A per-session StreamSet is its one-lane view.
type BatchStreamSet struct {
	rules []Rule
	group *stl.BatchStreamGroup // rule i's antecedent is group formula i
	width int

	fold ruleFold // the Eq. 1 verdict fold (see fold.go)

	// vals is the reused struct-of-arrays push matrix; sel maps each
	// group variable row to its State field.
	vals  []float64
	sel   []int
	fired [][]int // per active index k: rule IDs violated at the last push
	n     int
}

// NewBatchStreamSet compiles every rule body for batched evaluation
// across `width` session lanes at sampling period dtMin minutes (nil
// thresholds select the rules' CAWOT defaults).
func NewBatchStreamSet(rules []Rule, th Thresholds, p Params, dtMin float64, width int) (*BatchStreamSet, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("scs: stream set needs at least one rule")
	}
	if th == nil {
		th = Defaults(rules)
	}
	p = p.WithDefaults()
	group, err := stl.NewBatchStreamGroup(dtMin, width)
	if err != nil {
		return nil, fmt.Errorf("scs: %w", err)
	}
	bs := &BatchStreamSet{
		rules: rules,
		group: group,
		width: width,
		fired: make([][]int, width),
	}
	if err := compileAntecedents(rules, th, p, group); err != nil {
		return nil, err
	}
	bs.fold = newRuleFold(rules, group)
	if bs.sel, err = fieldSelectors(group.Vars()); err != nil {
		return nil, err
	}
	bs.vals = make([]float64, len(bs.sel)*width)
	for k := range bs.fired {
		bs.fired[k] = make([]int, 0, len(rules))
	}
	return bs, nil
}

// Rules returns the compiled rule set.
func (bs *BatchStreamSet) Rules() []Rule { return bs.rules }

// Width returns the lane count.
func (bs *BatchStreamSet) Width() int { return bs.width }

// Len returns the number of batched pushes consumed.
func (bs *BatchStreamSet) Len() int { return bs.n }

// LaneLen returns the number of samples one lane has consumed since its
// last reset.
func (bs *BatchStreamSet) LaneLen(lane int) int { return bs.group.LaneLen(lane) }

// PushLanes feeds one control cycle's context state for each of the
// given lanes and writes the per-lane verdicts into out (len(out) must
// be at least len(lanes)). states[k] is the cycle state of session lane
// lanes[k]; lanes absent from the call do not advance.
//
//fleetvet:noalloc
func (bs *BatchStreamSet) PushLanes(lanes []int, states []State, out []StreamVerdict) error {
	n := len(lanes)
	if n > bs.width {
		// Checked here because the value-matrix fill below slices bs.vals
		// by n before the lane-level validation in the group runs.
		return fmt.Errorf("scs: %d lanes exceed width %d", n, bs.width)
	}
	if len(states) != n {
		return fmt.Errorf("scs: %d states for %d lanes", len(states), n)
	}
	if len(out) < n {
		return fmt.Errorf("scs: verdict buffer holds %d, need %d", len(out), n)
	}
	vals := bs.vals[:len(bs.sel)*n]
	for k := range states {
		s := &states[k]
		for vi, sel := range bs.sel {
			vals[vi*n+k] = s.field(sel)
		}
	}
	if err := bs.group.PushLanes(lanes, vals); err != nil {
		return fmt.Errorf("scs: %w", err)
	}
	for k := range states {
		bs.fired[k] = bs.fold.fold(&out[k], float64(states[k].Action), k, bs.fired[k][:0])
	}
	bs.n++
	return nil
}

// Fired returns the rule IDs violated at active index k of the last
// push (k indexes the lanes slice that push was called with), in rule
// order. The slice is reused by the next push; callers that retain it
// must copy.
func (bs *BatchStreamSet) Fired(k int) []int { return bs.fired[k] }

// StateSamples returns the total buffered per-sample entries across the
// rule set's unique operator nodes, summed over all lanes (hash-consed
// subformulas count once).
func (bs *BatchStreamSet) StateSamples() int { return bs.group.StateSamples() }

// ResetLane clears one lane's rule-stream state — a session restarting
// in place — leaving other lanes untouched.
func (bs *BatchStreamSet) ResetLane(lane int) { bs.group.ResetLane(lane) }

// Reset clears all rule-stream state in every lane.
func (bs *BatchStreamSet) Reset() {
	bs.group.Reset()
	bs.n = 0
	for k := range bs.fired {
		bs.fired[k] = bs.fired[k][:0]
	}
}

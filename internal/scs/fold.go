package scs

import (
	"fmt"
	"math"

	"repro/internal/stl"
	"repro/internal/trace"
)

// compileAntecedents validates a rule set and compiles each rule's
// antecedent into group in rule order, so rule i's antecedent is group
// formula i.
func compileAntecedents(rules []Rule, th Thresholds, p Params, group *stl.BatchStreamGroup) error {
	for _, r := range rules {
		beta, ok := th[r.ID]
		if !ok {
			return fmt.Errorf("scs: missing threshold for rule %d", r.ID)
		}
		if r.Hazard == trace.HazardNone {
			// Every Safety Context Specification rule predicts a hazard
			// class; a zero Hazard is a construction bug, and admitting it
			// would fabricate an H2 attribution on violation.
			return fmt.Errorf("scs: rule %d has no hazard class", r.ID)
		}
		if _, err := group.Add(r.Antecedent(p, beta)); err != nil {
			return fmt.Errorf("scs: rule %d antecedent: %w", r.ID, err)
		}
	}
	return nil
}

// State field selectors for the rule vocabulary.
const (
	selBG = iota
	selBGPrime
	selIOB
	selIOBPrime
	selAction
)

// field reads the State field a selector names.
func (s *State) field(sel int) float64 {
	switch sel {
	case selBG:
		return s.BG
	case selBGPrime:
		return s.BGPrime
	case selIOB:
		return s.IOB
	case selIOBPrime:
		return s.IOBPrime
	default:
		return float64(s.Action)
	}
}

// fieldSelectors maps a compiled group's variable table to State field
// selectors, so pushes bind values without maps. A new rule-vocabulary
// variable must be wired here exactly once.
func fieldSelectors(vars []string) ([]int, error) {
	sel := make([]int, 0, len(vars))
	for _, name := range vars {
		switch name {
		case "BG":
			sel = append(sel, selBG)
		case "BG'":
			sel = append(sel, selBGPrime)
		case "IOB":
			sel = append(sel, selIOB)
		case "IOB'":
			sel = append(sel, selIOBPrime)
		case "u":
			sel = append(sel, selAction)
		default:
			return nil, fmt.Errorf("scs: rule set reads unknown variable %q", name)
		}
	}
	return sel, nil
}

// ruleFold is the Eq. 1 verdict fold over one session's per-rule
// antecedent results: the consequent specialization (forbidden vs
// required action), the minimum body robustness with arg-min rule, the
// fired set, the worst-violation signed margin, and the H1/H2 hazard
// attribution.
type ruleFold []foldRule

// foldRule is one rule's constants for the fold plus its antecedent's
// result vectors in the compiled group, packed so a rule costs one
// bounds check and one cache line.
type foldRule struct {
	sat      []bool    // antecedent satisfaction per active lane
	rob      []float64 // antecedent robustness per active lane
	action   float64   // the rule's control action as a float
	id       int
	required bool // consequent is u == action, not ¬(u == action)
	isH1     bool
}

// newRuleFold binds each rule to its antecedent, group formula i.
func newRuleFold(rules []Rule, group *stl.BatchStreamGroup) ruleFold {
	f := make(ruleFold, len(rules))
	for i, r := range rules {
		sat, rob := group.Outputs(i)
		f[i] = foldRule{
			action: float64(r.Action), id: r.ID, required: r.Required,
			isH1: r.Hazard == trace.HazardH1, sat: sat, rob: rob,
		}
	}
	return f
}

// fold writes the verdict of active lane k of the group's last push to
// out: u is the lane's issued action as a float, and fired an emptied
// scratch slice that violated rule IDs are appended to in rule order
// and returned.
func (f ruleFold) fold(out *StreamVerdict, u float64, k int, fired []int) []int {
	v := StreamVerdict{Sat: true, MinRobust: math.Inf(1)}
	worst := math.Inf(1) // violation depth of the worst violated rule
	anyH1 := false
	for i := range f {
		r := &f[i]
		// Consequent inline: rob(u == a) = -|u - a|, negated for the
		// forbidden-action form ¬(u == a). Identical to compiling
		// Rule.Consequent, minus the dispatch.
		rs, rr := u == r.action, -math.Abs(u-r.action)
		if !r.required {
			rs, rr = !rs, -rr
		}
		ls, lr := r.sat[k], r.rob[k]
		rob := rr // Eq. 1 body robustness: max(-lr, rr), finite operands
		if -lr > rob {
			rob = -lr
		}
		if rob < v.MinRobust {
			v.MinRobust = rob
			v.WorstRule = r.id
		}
		if !ls || rs {
			continue // body satisfied
		}
		v.Sat = false
		fired = append(fired, r.id)
		if r.isH1 {
			anyH1 = true
		}
		if m := -lr; m < worst {
			worst = m
			v.Rule = r.id
		}
	}
	if v.Sat {
		v.Margin, v.Rule = v.MinRobust, v.WorstRule
	} else {
		v.Margin = worst
		v.Hazard = trace.HazardH2
		if anyH1 {
			v.Hazard = trace.HazardH1
		}
	}
	*out = v
	return fired
}

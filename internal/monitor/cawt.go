package monitor

import (
	"math"

	"repro/internal/scs"
)

// DefaultCycleMin is the control-cycle length the rule streams compile
// against before the first observation arrives. Table I bodies are pure
// state predicates, so the sampling period only matters for rule sets
// with temporal windows; those recompile on the first observed cycle
// length if it differs.
const DefaultCycleMin = 5

// ContextAware is the rule-based safety monitor of Section III for one
// session: it evaluates the Table I Safety Context Specification online
// each control cycle and alarms when the issued action is unsafe in the
// current context. With data-driven thresholds it is the paper's CAWT
// monitor; with the generic defaults it is the CAWOT baseline.
//
// It is a one-lane view of BatchContextAware: the alarm, signed
// robustness margin, and arg-min rule attribution of every verdict come
// from one incremental rule-stream evaluation (no second per-cycle
// pass; the one-evaluation invariant the differential tests pin against
// ContextAwareLegacy).
type ContextAware struct{ laneView[*BatchContextAware] }

// NewCAWT builds the context-aware monitor with learned thresholds.
func NewCAWT(rules []scs.Rule, th scs.Thresholds, p scs.Params) (*ContextAware, error) {
	return contextAwareView(NewBatchCAWT(rules, th, p))
}

// NewCAWOT builds the context-aware baseline with default thresholds.
func NewCAWOT(rules []scs.Rule, p scs.Params) (*ContextAware, error) {
	return contextAwareView(NewBatchCAWOT(rules, p))
}

func contextAwareView(b *BatchContextAware, err error) (*ContextAware, error) {
	if err != nil {
		return nil, err
	}
	return &ContextAware{laneView[*BatchContextAware]{batch: b}}, nil
}

// marginConfidence squashes a signed robustness margin into [0, 1):
// verdicts at the rule boundary carry no confidence, deep margins
// saturate toward 1.
func marginConfidence(margin float64) float64 {
	m := math.Abs(margin)
	if math.IsInf(m, 1) {
		return 1
	}
	return m / (1 + m)
}

// StreamVerdict returns the full streaming verdict of the last step —
// the same single evaluation the Verdict was derived from — for
// telemetry consumers that want the raw STL minimum alongside the
// signed margin. The boolean is false before the first step.
func (m *ContextAware) StreamVerdict() (scs.StreamVerdict, bool) {
	return m.batch.StreamVerdictLane(0)
}

// FiredRules returns the rule IDs that fired at the last step.
func (m *ContextAware) FiredRules() []int { return m.batch.FiredRulesLane(0) }

// Thresholds returns the monitor's threshold table.
func (m *ContextAware) Thresholds() scs.Thresholds { return m.batch.thresholds }

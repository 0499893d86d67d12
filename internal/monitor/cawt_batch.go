package monitor

import (
	"fmt"
	"sort"

	"repro/internal/scs"
	"repro/internal/stl"
)

// BatchContextAware is the context-aware monitor evaluated across any
// number of session lanes at once: one scs.BatchStreamSet holds every
// lane's rule-stream state in [lanes]-wide vectors, and a single
// batched push per control cycle yields every lane's alarm, hazard,
// signed margin, and rule attribution. A fleet shard runs one across
// its live sessions; a per-session ContextAware is its one-lane view.
//
// It implements BatchMonitor for the fleet engine's per-shard batched
// path and exposes per-lane streaming verdicts for FromMonitor
// telemetry, preserving the one-evaluation invariant at shard scale.
type BatchContextAware struct {
	name       string
	rules      []scs.Rule
	thresholds scs.Thresholds
	params     scs.Params

	dt      float64
	streams *scs.BatchStreamSet
	width   int

	lanes []cawtLane

	states   []scs.State
	verdicts []scs.StreamVerdict
}

// cawtLane is one lane's last streaming verdict and fired rules.
type cawtLane struct {
	last  scs.StreamVerdict
	ok    bool // false before the lane's first step
	fired []int
}

var _ BatchMonitor = (*BatchContextAware)(nil)

// NewBatchCAWT builds the batched context-aware monitor with learned
// thresholds.
func NewBatchCAWT(rules []scs.Rule, th scs.Thresholds, p scs.Params) (*BatchContextAware, error) {
	return newBatchContextAware("CAWT", rules, th, p)
}

// NewBatchCAWOT builds the batched context-aware baseline with default
// thresholds.
func NewBatchCAWOT(rules []scs.Rule, p scs.Params) (*BatchContextAware, error) {
	return newBatchContextAware("CAWOT", rules, scs.Defaults(rules), p)
}

// newBatchContextAware validates the rule set and compiles it eagerly
// at DefaultCycleMin with one lane, so a rule set that cannot compile
// fails here rather than inside a fleet shard.
func newBatchContextAware(name string, rules []scs.Rule, th scs.Thresholds, p scs.Params) (*BatchContextAware, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("monitor: %s needs at least one rule", name)
	}
	for _, r := range rules {
		if _, ok := th[r.ID]; !ok {
			return nil, fmt.Errorf("monitor: %s missing threshold for rule %d", name, r.ID)
		}
	}
	m := &BatchContextAware{
		name:       name,
		rules:      rules,
		thresholds: th,
		params:     p.WithDefaults(),
		dt:         DefaultCycleMin,
		width:      1,
	}
	if err := m.compile(); err != nil {
		return nil, fmt.Errorf("monitor: %s: %w", name, err)
	}
	m.allocLanes()
	return m, nil
}

// Name implements BatchMonitor.
func (m *BatchContextAware) Name() string { return m.name }

// compile builds the batched rule streams at the current width and
// sampling period.
func (m *BatchContextAware) compile() error {
	streams, err := scs.NewBatchStreamSet(m.rules, m.thresholds, m.params, m.dt, m.width)
	if err != nil {
		return err
	}
	m.streams = streams
	return nil
}

// rebuild recompiles after a width or sampling-period change. The rule
// set compiled at construction, so a failure here is an engine bug.
func (m *BatchContextAware) rebuild() {
	if err := m.compile(); err != nil {
		panic(fmt.Sprintf("monitor: %s batch compile at dt=%v width=%d: %v", m.name, m.dt, m.width, err))
	}
}

// allocLanes sizes the per-lane verdict state and push scratch to the
// current width.
func (m *BatchContextAware) allocLanes() {
	m.lanes = make([]cawtLane, m.width)
	m.states = make([]scs.State, m.width)
	m.verdicts = make([]scs.StreamVerdict, m.width)
}

// ResetLanes implements BatchMonitor: prepare n independent session
// lanes, clearing every lane's rule-stream state. With no lane holding
// state, the next step recompiles at its observed cycle length.
func (m *BatchContextAware) ResetLanes(n int) {
	if n != m.width {
		m.width = n
		m.rebuild()
		m.allocLanes()
		return
	}
	m.streams.Reset()
	for lane := range m.lanes {
		m.clearLane(lane)
	}
}

// ResetLane implements BatchMonitor: clear one lane's rule-stream state
// (a session restarting in place).
func (m *BatchContextAware) ResetLane(lane int) {
	m.streams.ResetLane(lane)
	m.clearLane(lane)
}

// clearLane forgets one lane's last verdict and fired rules.
func (m *BatchContextAware) clearLane(lane int) {
	l := &m.lanes[lane]
	l.last, l.ok, l.fired = scs.StreamVerdict{}, false, l.fired[:0]
}

// StepBatch implements BatchMonitor: one batched rule-stream push
// evaluates every lane's cycle. The predicted hazard is the class of
// the violated rules (H1 wins ties, being the acute hazard).
func (m *BatchContextAware) StepBatch(lanes []int, obs []Observation, out []Verdict) {
	n := len(obs)
	if n == 0 {
		return
	}
	if obs[0].CycleMin != m.dt && stl.ValidatePeriod(obs[0].CycleMin) == nil && !m.liveLane(-1) {
		// Recompile at the observed sampling period while no lane holds
		// state. Table I bodies are sampling-period-free; this only
		// matters for rule sets with temporal windows.
		m.dt = obs[0].CycleMin
		m.rebuild()
	}
	states := m.states[:n]
	for k := range obs {
		o := &obs[k]
		states[k] = scs.State{
			BG:       o.CGM,
			BGPrime:  o.BGPrime,
			IOB:      o.IOB,
			IOBPrime: o.IOBPrime,
			Action:   o.Action,
		}
	}
	if err := m.streams.PushLanes(lanes, states, m.verdicts[:n]); err != nil {
		// The push vocabulary and lane range are fixed by the engine; an
		// error here is an engine bug, not an input condition.
		panic(fmt.Sprintf("monitor: %s: %v", m.name, err))
	}
	for k, lane := range lanes[:n] {
		v := &m.verdicts[k]
		l := &m.lanes[lane]
		l.last, l.ok = *v, true
		l.fired = append(l.fired[:0], m.streams.Fired(k)...)
		if len(l.fired) > 1 {
			sort.Ints(l.fired)
		}
		out[k] = Verdict{
			Alarm:      !v.Sat,
			Hazard:     v.Hazard,
			Margin:     v.Margin,
			Rule:       v.Rule,
			Confidence: marginConfidence(v.Margin),
		}
	}
}

// liveLane reports whether any lane other than except holds rule-stream
// state; those lanes pin the compiled sampling period.
func (m *BatchContextAware) liveLane(except int) bool {
	for lane := 0; lane < m.width; lane++ {
		if lane != except && m.streams.LaneLen(lane) > 0 {
			return true
		}
	}
	return false
}

// StreamVerdictLane returns the full streaming verdict of one lane's
// last step — the same single evaluation its Verdict was derived from —
// for FromMonitor telemetry. The boolean is false before the lane's
// first step (or after a lane reset).
func (m *BatchContextAware) StreamVerdictLane(lane int) (scs.StreamVerdict, bool) {
	return m.lanes[lane].last, m.lanes[lane].ok
}

// FiredRulesLane returns the rule IDs that fired at one lane's last
// step, ascending.
func (m *BatchContextAware) FiredRulesLane(lane int) []int {
	return append([]int(nil), m.lanes[lane].fired...)
}

// Thresholds returns the monitor's threshold table.
func (m *BatchContextAware) Thresholds() scs.Thresholds { return m.thresholds }

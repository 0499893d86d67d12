package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// acc is a layer accumulator owned by one decorated instance: the
// instance is used by one goroutine at a time, so the hot path adds no
// synchronization the untraced program lacks. Accumulators are summed
// once the run has ended.
type acc struct {
	calls int64         // boundary crossings
	work  int64         // work items (lanes, verdicts, events)
	busy  time.Duration // time inside the layer
	max   time.Duration // longest single crossing
}

func (a *acc) add(d time.Duration, work int) {
	a.calls++
	a.work += int64(work)
	a.busy += d
	if d > a.max {
		a.max = d
	}
}

func (a *acc) merge(b acc) {
	a.calls += b.calls
	a.work += b.work
	a.busy += b.busy
	if b.max > a.max {
		a.max = b.max
	}
}

// layers registers every decorated instance of one run. Registration
// happens at construction (never on the hot path); totals are read only
// after the run that used the instances has returned.
type layers struct {
	mu    sync.Mutex
	ctrls []*tracedController
	pats  []*tracedPatient
	mons  []*tracedMonitor
	sinks []*tracedSink
}

// layerTotals is the sum over all instances of each decorated layer.
type layerTotals struct {
	control, sim, monitor, sink acc
}

func (l *layers) totals() layerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t layerTotals
	for _, c := range l.ctrls {
		t.control.merge(c.acc)
	}
	for _, p := range l.pats {
		t.sim.merge(p.acc)
	}
	for _, m := range l.mons {
		t.monitor.merge(m.acc)
	}
	for _, s := range l.sinks {
		t.sink.merge(s.acc)
	}
	return t
}

// minus returns the work done since an earlier reading.
func (t layerTotals) minus(b layerTotals) layerTotals {
	sub := func(x, y acc) acc {
		return acc{calls: x.calls - y.calls, work: x.work - y.work, busy: x.busy - y.busy, max: x.max}
	}
	return layerTotals{
		control: sub(t.control, b.control),
		sim:     sub(t.sim, b.sim),
		monitor: sub(t.monitor, b.monitor),
		sink:    sub(t.sink, b.sink),
	}
}

// busy is the summed busy time of every decorated layer.
func (t layerTotals) busy() time.Duration {
	return t.control.busy + t.sim.busy + t.monitor.busy + t.sink.busy
}

// platform wraps a platform's controller and batch-patient
// constructors with timing decorators.
func (l *layers) platform(p fleet.Platform) fleet.Platform {
	newCtrl, newBatch := p.NewController, p.NewBatchPatient
	p.NewController = func(basal float64) (control.Controller, error) {
		c, err := newCtrl(basal)
		if err != nil {
			return nil, err
		}
		if _, ok := c.(snapshot.Snapshotter); !ok {
			return nil, fmt.Errorf("apsbench: controller %T lacks snapshot.Snapshotter; the decorator would change the code path", c)
		}
		tc := &tracedController{Controller: c}
		l.mu.Lock()
		l.ctrls = append(l.ctrls, tc)
		l.mu.Unlock()
		return tc, nil
	}
	if newBatch != nil {
		p.NewBatchPatient = func(lanes int) (sim.BatchPatient, error) {
			b, err := newBatch(lanes)
			if err != nil {
				return nil, err
			}
			if _, ok := b.(batchPatientOptional); !ok {
				return nil, fmt.Errorf("apsbench: batch patient %T lacks the optional interfaces the decorator forwards", b)
			}
			tp := &tracedPatient{BatchPatient: b}
			l.mu.Lock()
			l.pats = append(l.pats, tp)
			l.mu.Unlock()
			return tp, nil
		}
	}
	return p
}

// batchMonitor wraps a batch-monitor constructor.
func (l *layers) batchMonitor(newMon func() (monitor.BatchMonitor, error)) func() (monitor.BatchMonitor, error) {
	return func() (monitor.BatchMonitor, error) {
		m, err := newMon()
		if err != nil {
			return nil, err
		}
		if _, ok := m.(batchMonitorOptional); !ok {
			return nil, fmt.Errorf("apsbench: batch monitor %T lacks the optional interfaces the decorator forwards", m)
		}
		tm := &tracedMonitor{BatchMonitor: m}
		l.mu.Lock()
		l.mons = append(l.mons, tm)
		l.mu.Unlock()
		return tm, nil
	}
}

// sink wraps a sink.
func (l *layers) sink(s fleet.Sink) fleet.Sink {
	ts := &tracedSink{Sink: s}
	l.mu.Lock()
	l.sinks = append(l.sinks, ts)
	l.mu.Unlock()
	return ts
}

// tracedController times Decide and RecordDelivery. It forwards
// snapshot.Snapshotter, the one optional interface the engine asserts
// on controllers.
type tracedController struct {
	control.Controller
	acc acc
}

func (c *tracedController) Decide(in control.Input) control.Output {
	t0 := time.Now()
	out := c.Controller.Decide(in)
	c.acc.add(time.Since(t0), 1)
	return out
}

func (c *tracedController) RecordDelivery(rateUPerH, dtMin float64) {
	t0 := time.Now()
	c.Controller.RecordDelivery(rateUPerH, dtMin)
	c.acc.busy += time.Since(t0)
}

func (c *tracedController) SnapshotState(enc *snapshot.Encoder) {
	c.Controller.(snapshot.Snapshotter).SnapshotState(enc)
}

func (c *tracedController) RestoreState(dec *snapshot.Decoder) error {
	return c.Controller.(snapshot.Snapshotter).RestoreState(dec)
}

// batchPatientOptional is what the engine type-asserts on a batch
// patient: per-lane exercise and per-lane snapshots.
type batchPatientOptional interface {
	sim.BatchExerciseHost
	snapshot.LaneSnapshotter
}

// tracedPatient times batched physiology stepping.
type tracedPatient struct {
	sim.BatchPatient
	acc acc
}

func (p *tracedPatient) StepLanes(lanes []int, insulinUPerH, carbGPerMin []float64, dtMin float64) {
	t0 := time.Now()
	p.BatchPatient.StepLanes(lanes, insulinUPerH, carbGPerMin, dtMin)
	p.acc.add(time.Since(t0), len(lanes))
}

func (p *tracedPatient) StepLane(lane int, insulinUPerH, carbGPerMin, dtMin float64) {
	t0 := time.Now()
	p.BatchPatient.StepLane(lane, insulinUPerH, carbGPerMin, dtMin)
	p.acc.add(time.Since(t0), 1)
}

func (p *tracedPatient) SetLaneExercise(lane int, perMin float64) {
	p.BatchPatient.(sim.BatchExerciseHost).SetLaneExercise(lane, perMin)
}

func (p *tracedPatient) SnapshotLane(lane int, enc *snapshot.Encoder) {
	p.BatchPatient.(snapshot.LaneSnapshotter).SnapshotLane(lane, enc)
}

func (p *tracedPatient) RestoreLane(lane int, dec *snapshot.Decoder) error {
	return p.BatchPatient.(snapshot.LaneSnapshotter).RestoreLane(lane, dec)
}

// batchMonitorOptional is what the engine type-asserts on a batch
// monitor: per-lane streaming verdicts (monitor-sourced telemetry) and
// per-lane snapshots.
type batchMonitorOptional interface {
	StreamVerdictLane(lane int) (scs.StreamVerdict, bool)
	snapshot.LaneSnapshotter
}

// tracedMonitor times batched monitor inference.
type tracedMonitor struct {
	monitor.BatchMonitor
	acc acc
}

func (m *tracedMonitor) StepBatch(lanes []int, obs []monitor.Observation, out []monitor.Verdict) {
	t0 := time.Now()
	m.BatchMonitor.StepBatch(lanes, obs, out)
	m.acc.add(time.Since(t0), len(lanes))
}

func (m *tracedMonitor) StreamVerdictLane(lane int) (scs.StreamVerdict, bool) {
	return m.BatchMonitor.(batchMonitorOptional).StreamVerdictLane(lane)
}

func (m *tracedMonitor) SnapshotLane(lane int, enc *snapshot.Encoder) {
	m.BatchMonitor.(snapshot.LaneSnapshotter).SnapshotLane(lane, enc)
}

func (m *tracedMonitor) RestoreLane(lane int, dec *snapshot.Decoder) error {
	return m.BatchMonitor.(snapshot.LaneSnapshotter).RestoreLane(lane, dec)
}

// tracedSink times sink delivery (serial at epoch barriers).
type tracedSink struct {
	fleet.Sink
	acc acc
}

func (s *tracedSink) Emit(ev fleet.Event) error {
	t0 := time.Now()
	err := s.Sink.Emit(ev)
	s.acc.add(time.Since(t0), 1)
	return err
}

// span is one coarse call: name, start and end relative to the run
// start, and the span that caused it (-1 for none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans records coarse calls in memory; writeTrace stores them when
// the benchmark ends. Only the benchmark's main goroutine records spans.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent and returns its id; a nil *spans
// (untraced runs) records nothing.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{ID: len(s.list), Parent: parent, Name: name, Start: time.Since(s.t0).Seconds()})
	return len(s.list) - 1
}

// end closes a span opened by begin.
func (s *spans) end(id int) {
	if s != nil {
		s.list[id].End = time.Since(s.t0).Seconds()
	}
}

// do runs fn as a span under parent and returns its duration.
func (s *spans) do(name string, parent int, fn func() error) (time.Duration, error) {
	id := s.begin(name, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.end(id)
	return d, err
}

// accJSON is one layer's accumulator in the trace file.
type accJSON struct {
	Calls int64   `json:"calls"`
	Work  int64   `json:"work"`
	BusyS float64 `json:"busy_s"`
	MaxS  float64 `json:"max_s"`
}

func (a acc) json() accJSON {
	return accJSON{Calls: a.calls, Work: a.work, BusyS: a.busy.Seconds(), MaxS: a.max.Seconds()}
}

// writeTrace stores a traced run's spans and whole-run layer totals as
// JSON in opt.outDir (no-op without one).
func writeTrace(opt options, sp *spans, lay *layers) error {
	if opt.outDir == "" {
		return nil
	}
	t := lay.totals()
	file := struct {
		Spans  []span             `json:"spans"`
		Layers map[string]accJSON `json:"layers"`
	}{
		Spans: sp.list,
		Layers: map[string]accJSON{
			"control": t.control.json(),
			"sim":     t.sim.json(),
			"monitor": t.monitor.json(),
			"sink":    t.sink.json(),
		},
	}
	data, err := json.Marshal(file)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.outDir, fmt.Sprintf("trace-%s-seed%d.json", opt.workload, opt.seed)), data, 0o644)
}

package fleet

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/closedloop"
	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/sim/glucosym"
	"repro/internal/sim/uvapadova"
	"repro/internal/stl"
	"repro/internal/trace"
)

// glucosymPlatform mirrors experiment.Glucosym without importing
// experiment (which imports fleet).
func glucosymPlatform() Platform {
	return Platform{
		Name:        "glucosym",
		NumPatients: glucosym.NumPatients,
		NewPatient: func(idx int) (closedloop.Patient, error) {
			return glucosym.New(idx)
		},
		NewBatchPatient: func(lanes int) (sim.BatchPatient, error) {
			return glucosym.NewBatch(lanes)
		},
		NewController: func(basal float64) (control.Controller, error) {
			return control.NewOpenAPS(control.OpenAPSConfig{Basal: basal, ISF: 50})
		},
	}
}

// scalarBank is the scalar-stepping oracle: a sim.BatchPatient whose
// lanes are independent Platform.NewPatient models, each advanced by its
// own scalar integrator one lane at a time. Run through the engine in
// place of the platform's struct-of-arrays bank, it reproduces the
// one-patient-per-session loop the batched stepping must match.
type scalarBank struct {
	newPatient func(idx int) (closedloop.Patient, error)
	pts        []closedloop.Patient
}

var (
	_ sim.BatchPatient      = (*scalarBank)(nil)
	_ sim.BatchExerciseHost = (*scalarBank)(nil)
)

func (b *scalarBank) NumLanes() int { return len(b.pts) }

func (b *scalarBank) ConfigureLane(lane, patientIdx int) error {
	p, err := b.newPatient(patientIdx)
	if err != nil {
		return err
	}
	b.pts[lane] = p
	return nil
}

func (b *scalarBank) ID(lane int) string                { return b.pts[lane].ID() }
func (b *scalarBank) Basal(lane int) float64            { return b.pts[lane].Basal() }
func (b *scalarBank) BG(lane int) float64               { return b.pts[lane].BG() }
func (b *scalarBank) CGM(lane int) float64              { return b.pts[lane].CGM() }
func (b *scalarBank) Reset(lane int, initialBG float64) { b.pts[lane].Reset(initialBG) }

func (b *scalarBank) StepLane(lane int, insulinUPerH, carbGPerMin, dtMin float64) {
	b.pts[lane].Step(insulinUPerH, carbGPerMin, dtMin)
}

func (b *scalarBank) StepLanes(lanes []int, insulinUPerH, carbGPerMin []float64, dtMin float64) {
	for i, lane := range lanes {
		carb := 0.0
		if carbGPerMin != nil {
			carb = carbGPerMin[i]
		}
		b.pts[lane].Step(insulinUPerH[i], carb, dtMin)
	}
}

func (b *scalarBank) SetLaneExercise(lane int, perMin float64) {
	b.pts[lane].(sim.ExerciseHost).SetExercise(perMin)
}

// scalarPlatform swaps p's batched patient bank for the scalarBank
// oracle over p.NewPatient.
func scalarPlatform(p Platform) Platform {
	p.NewBatchPatient = func(lanes int) (sim.BatchPatient, error) {
		return &scalarBank{newPatient: p.NewPatient, pts: make([]closedloop.Patient, lanes)}, nil
	}
	return p
}

// thinScenarios picks every k-th scenario of the full campaign, in
// program form (the fleet's native scenario type).
func thinScenarios(k int) []fault.Program {
	all := fault.CampaignPrograms(nil)
	out := make([]fault.Program, 0, len(all)/k+1)
	for i := 0; i < len(all); i += k {
		out = append(out, all[i])
	}
	return out
}

// tracesCSV serializes traces to one byte stream for golden comparison.
func tracesCSV(t *testing.T, traces []*trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range traces {
		if tr == nil {
			t.Fatal("nil trace in result")
		}
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSessionMatchesClosedLoopRun pins the fleet session to the one-shot
// simulator: a single session must reproduce closedloop.Run exactly.
func TestSessionMatchesClosedLoopRun(t *testing.T) {
	plat := glucosymPlatform()
	sc := fault.Campaign(nil)[97]

	res, err := Run(context.Background(), Config{
		Platform: plat, Patients: []int{2},
		Scenarios: []fault.Program{sc.Program()}, Steps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("%d traces, want 1", len(res.Traces))
	}

	patient, err := plat.NewPatient(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := plat.NewController(patient.Basal())
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Fault
	want, err := closedloop.Run(closedloop.Config{
		Platform: "glucosym/" + ctrl.Name(), Steps: 60,
		InitialBG: sc.InitialBG, Patient: patient, Controller: ctrl, Fault: &f,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Traces[0]
	if got.Len() != want.Len() {
		t.Fatalf("length %d vs %d", got.Len(), want.Len())
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, got.Samples[i], want.Samples[i])
		}
	}
}

// TestFleetDeterministicAcrossParallelism is the golden determinism
// guard: with sensor noise active (per-session RNG in the loop), the
// serialized traces must be byte-identical at Parallel=1 and at fixed
// higher levels (so the host's core count cannot hide a divergence).
func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 3},
		Scenarios: thinScenarios(40),
		Steps:     40,
		Seed:      42,
		Sensor:    &sensor.Config{NoiseSD: 3},
	}
	run := func(parallel int) []byte {
		cfg := base
		cfg.Parallel = parallel
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tracesCSV(t, res.Traces)
	}
	golden := run(1)
	for _, p := range []int{2, 4, 7} {
		if got := run(p); !bytes.Equal(got, golden) {
			t.Fatalf("Parallel=%d traces differ from Parallel=1 golden", p)
		}
	}

	// A different master seed must change noisy traces (the noise is
	// real, not a constant).
	cfg := base
	cfg.Seed = 43
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(tracesCSV(t, res.Traces), golden) {
		t.Fatal("seed 43 reproduced seed 42 traces — RNG not wired")
	}
}

// TestFleetThousandSessions drives ≥1000 concurrent sessions to
// completion; under -race this is the engine's race coverage.
func TestFleetThousandSessions(t *testing.T) {
	events := make(chan Event, 64)
	counts := make(map[EventKind]int)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range events {
			counts[ev.Kind]++
		}
	}()

	const sessions = 1000
	res, err := Run(context.Background(), Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 1, 2, 3, 4},
		Scenarios: thinScenarios(20), // 45 scenarios: 225-slot matrix, wrapped
		Sessions:  sessions,
		Steps:     25,
		// 4 shards x 250-session windows: all 1000 sessions are live
		// and interleaved concurrently.
		Parallel:        4,
		MaxLivePerShard: 250,
		Seed:            7,
		Sensor:          &sensor.Config{NoiseSD: 2},
		Events:          events, ProgressEvery: 250,
	})
	close(events)
	<-drained
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != sessions || res.Completed != sessions {
		t.Fatalf("sessions %d completed %d, want %d", res.Sessions, res.Completed, sessions)
	}
	if res.Steps != sessions*25 {
		t.Fatalf("steps %d, want %d", res.Steps, sessions*25)
	}
	if len(res.Traces) != sessions {
		t.Fatalf("%d traces", len(res.Traces))
	}
	for i, tr := range res.Traces {
		if tr == nil {
			t.Fatalf("trace %d missing", i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
	}
	if counts[EventSessionStart] != sessions || counts[EventSessionDone] != sessions {
		t.Fatalf("events: %d starts, %d dones, want %d each",
			counts[EventSessionStart], counts[EventSessionDone], sessions)
	}
	if counts[EventProgress] != sessions/250 {
		t.Fatalf("%d progress events, want %d", counts[EventProgress], sessions/250)
	}
}

// TestFleetCancellation stops a finite run early and expects an error.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0},
		Scenarios: thinScenarios(40),
		Steps:     150,
	})
	if err == nil {
		t.Fatal("cancelled finite run should fail")
	}
}

// TestFleetContinuous runs the serving mode under a deadline: slots
// restart as replicas until cancellation, traces are recycled, and the
// deadline is not an error.
func TestFleetContinuous(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, Config{
		Platform:   glucosymPlatform(),
		Patients:   []int{0},
		Scenarios:  thinScenarios(200), // 5 scenarios: 5 slots
		Steps:      5,
		Parallel:   2,
		Continuous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != nil {
		t.Fatal("continuous mode must not retain traces")
	}
	if res.Completed <= int64(res.Sessions) {
		t.Fatalf("completed %d sessions across %d slots — no replica restarts in 300ms",
			res.Completed, res.Sessions)
	}
}

// trainFleetMLP fits a small MLP on traces from a monitor-less campaign.
func trainFleetMLP(t *testing.T, scenarios []fault.Program) *ml.MLP {
	t.Helper()
	res, err := Run(context.Background(), Config{
		Platform: glucosymPlatform(), Patients: []int{0},
		Scenarios: scenarios, Steps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	X, y := monitor.TrainingData(res.Traces, false)
	mlp, err := ml.FitMLP(X, y, ml.MLPConfig{Hidden: []int{16}, Epochs: 3}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return mlp
}

// scalarMLP is the test-side reference monitor: the MLP's scalar
// PredictProba per cycle, the first most probable class deciding the
// verdict (binary class 1 alarms H1) and its probability the confidence.
type scalarMLP struct{ mlp *ml.MLP }

func (m scalarMLP) Name() string { return "MLP" }
func (m scalarMLP) Reset()       {}
func (m scalarMLP) Step(obs monitor.Observation) monitor.Verdict {
	proba := m.mlp.PredictProba(monitor.Features(obs))
	class := 0
	for i, p := range proba {
		if p > proba[class] {
			class = i
		}
	}
	v := monitor.Verdict{Confidence: proba[class]}
	if class != 0 {
		v.Alarm, v.Hazard = true, trace.HazardH1
	}
	return v
}

// TestFleetBatchedMonitorMatchesPerSession runs the same mitigated fleet
// with per-shard batched MLP inference, with per-session MLP monitors,
// and with the scalar reference monitor, at several parallelism levels;
// all traces must be identical (batched inference is bit-exact, and the
// monitors share one model across shards, which must be safe).
func TestFleetBatchedMonitorMatchesPerSession(t *testing.T) {
	scenarios := thinScenarios(30)
	mlp := trainFleetMLP(t, scenarios[:10])

	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 1},
		Scenarios: scenarios,
		Steps:     50,
		Mitigate:  true,
	}
	for _, parallel := range []int{1, 2, 4} {
		refCfg := base
		refCfg.Parallel = parallel
		refCfg.NewMonitor = func(int) (monitor.Monitor, error) { return scalarMLP{mlp}, nil }
		perCfg := base
		perCfg.Parallel = parallel
		perCfg.NewMonitor = func(int) (monitor.Monitor, error) {
			return monitor.NewMLMonitor("MLP", mlp.NewBatch())
		}
		batchCfg := base
		batchCfg.Parallel = parallel
		batchCfg.NewBatchMonitor = func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchML("MLP", mlp.NewBatch())
		}

		ref, err := Run(context.Background(), refCfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Alarmed == 0 {
			t.Fatal("monitor never alarmed — comparison is vacuous")
		}
		want := tracesCSV(t, ref.Traces)
		for _, tc := range []struct {
			shape string
			cfg   Config
		}{{"per-session", perCfg}, {"batched", batchCfg}} {
			got, err := Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tracesCSV(t, got.Traces), want) {
				t.Fatalf("Parallel=%d: %s traces differ from the scalar reference", parallel, tc.shape)
			}
			if got.Alarmed != ref.Alarmed || got.Hazardous != ref.Hazardous {
				t.Fatalf("Parallel=%d: %s counters %+v, reference %+v", parallel, tc.shape, got, ref)
			}
		}
	}
}

// robKey locates one telemetry emission within a run.
type robKey struct {
	session, replica, step int
}

// robVal is the emitted margin and arg-min rule.
type robVal struct {
	rob  float64
	rule int
}

// collectRobustness runs a fleet with streaming STL telemetry attached
// and returns every EventRobustness keyed by (session, replica, step).
func collectRobustness(t *testing.T, cfg Config) (map[robKey]robVal, Result) {
	t.Helper()
	events := make(chan Event, 256)
	cfg.Events = events
	got := make(map[robKey]robVal)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range events {
			if ev.Kind != EventRobustness {
				continue
			}
			k := robKey{ev.Session, ev.Replica, ev.Step}
			if _, dup := got[k]; dup {
				t.Errorf("duplicate robustness event for %+v", k)
			}
			got[k] = robVal{ev.Robustness, ev.Rule}
		}
	}()
	res, err := Run(context.Background(), cfg)
	close(events)
	<-drained
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

// TestFleetTelemetryMatchesOfflineSTL is the offline/online equivalence
// check for the hazard-telemetry path: the margins streamed live by the
// per-session incremental engine must exactly equal re-evaluating the
// Table I rule formulas offline on the recorded traces at every index.
func TestFleetTelemetryMatchesOfflineSTL(t *testing.T) {
	// Include the truncate-glucose availability attack from a
	// hyperglycemic start: the controller engages low-glucose suspend
	// and stops insulin while actually hyperglycemic, violating rule 9.
	scenarios := append(thinScenarios(80), fault.Scenario{
		Fault: fault.Fault{
			Kind: fault.KindTruncate, Target: "glucose",
			StartStep: 10, Duration: 40,
		},
		InitialBG: 170,
	}.Program())
	cfg := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: scenarios,
		Steps:     50,
		Telemetry: &TelemetryConfig{},
	}
	got, res := collectRobustness(t, cfg)
	if len(res.Traces) == 0 {
		t.Fatal("no traces retained")
	}
	wantEvents := len(res.Traces) * cfg.Steps
	if len(got) != wantEvents {
		t.Fatalf("%d robustness events, want %d", len(got), wantEvents)
	}

	rules := scs.TableI()
	th := scs.Defaults(rules)
	formulas := make([]stl.Formula, len(rules))
	for i, r := range rules {
		formulas[i] = r.STL(scs.Params{}, th[r.ID])
	}
	violations := 0
	for sess, tr := range res.Traces {
		offline, err := stl.NewTrace(tr.CycleMin)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Samples {
			s := &tr.Samples[i]
			offline.Append(map[string]float64{
				"BG": s.CGM, "BG'": s.BGPrime, "IOB": s.IOB, "IOB'": s.IOBPrime,
				"u": float64(s.Action),
			})
			wantRob, wantRule := 0.0, 0
			for k := range formulas {
				rob, err := formulas[k].Robustness(offline, i)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 || rob < wantRob {
					wantRob, wantRule = rob, rules[k].ID
				}
			}
			ev, ok := got[robKey{sess, 0, i}]
			if !ok {
				t.Fatalf("session %d step %d: no robustness event", sess, i)
			}
			if ev.rob != wantRob || ev.rule != wantRule {
				t.Fatalf("session %d step %d: streamed %v (rule %d), offline %v (rule %d)",
					sess, i, ev.rob, ev.rule, wantRob, wantRule)
			}
			if wantRob < 0 {
				violations++
			}
		}
	}
	if violations == 0 {
		t.Fatal("no negative margins across a fault campaign — comparison is vacuous")
	}
}

// TestFleetTelemetryDeterministicAcrossParallelism: telemetry values are
// a pure function of the session, so the (session, step) -> margin map
// must be identical at any parallelism level even though event order is
// not.
func TestFleetTelemetryDeterministicAcrossParallelism(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 3},
		Scenarios: thinScenarios(80),
		Steps:     30,
		Seed:      11,
		Sensor:    &sensor.Config{NoiseSD: 2},
		Telemetry: &TelemetryConfig{Every: 3},
	}
	run := func(parallel int) map[robKey]robVal {
		cfg := base
		cfg.Parallel = parallel
		got, res := collectRobustness(t, cfg)
		want := len(res.Traces) * base.Steps / base.Telemetry.Every
		if len(got) != want {
			t.Fatalf("Parallel=%d: %d events, want %d (Every=%d)",
				parallel, len(got), want, base.Telemetry.Every)
		}
		return got
	}
	golden := run(1)
	for _, p := range []int{2, 4} {
		parallel := run(p)
		if len(golden) != len(parallel) {
			t.Fatalf("Parallel=%d: event counts differ: %d vs %d", p, len(golden), len(parallel))
		}
		for k, v := range golden {
			if pv, ok := parallel[k]; !ok || pv != v {
				t.Fatalf("Parallel=%d: event %+v differs across parallelism: %+v vs %+v", p, k, v, pv)
			}
		}
	}
}

// TestFleetTelemetryContinuous: telemetry survives continuous-mode
// replica churn (stream sets reset and carry over between replicas).
func TestFleetTelemetryContinuous(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	events := make(chan Event, 256)
	var robCount int
	replicas := make(map[int]bool)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range events {
			if ev.Kind == EventRobustness {
				robCount++
				replicas[ev.Replica] = true
			}
		}
	}()
	res, err := Run(ctx, Config{
		Platform:   glucosymPlatform(),
		Patients:   []int{0},
		Scenarios:  thinScenarios(300), // 3 scenarios: 3 slots
		Steps:      5,
		Parallel:   2,
		Continuous: true,
		Telemetry:  &TelemetryConfig{},
		Events:     events,
	})
	close(events)
	<-drained
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed <= int64(res.Sessions) {
		t.Fatalf("no replica restarts in 300ms (completed %d)", res.Completed)
	}
	if robCount == 0 {
		t.Fatal("no robustness events in continuous mode")
	}
	if len(replicas) < 2 {
		t.Fatalf("telemetry seen for %d replica generations, want >= 2", len(replicas))
	}
}

// TestFleetValidation covers config error paths.
func TestFleetValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("empty platform should fail")
	}
	cfg := Config{
		Platform: glucosymPlatform(), Patients: []int{99},
		Scenarios: thinScenarios(200), Steps: 5,
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("out-of-cohort patient should fail")
	}
	both := Config{
		Platform:        glucosymPlatform(),
		NewMonitor:      func(int) (monitor.Monitor, error) { return nil, nil },
		NewBatchMonitor: func() (monitor.BatchMonitor, error) { return nil, nil },
	}
	if _, err := Run(context.Background(), both); err == nil {
		t.Error("NewMonitor + NewBatchMonitor should fail")
	}
	ring, err := NewRingSink(8)
	if err != nil {
		t.Fatal(err)
	}
	epochNoShard := Config{
		Platform:  glucosymPlatform(),
		SinkEpoch: 8,
		Sinks:     []Sink{ring},
	}
	if _, err := Run(context.Background(), epochNoShard); err == nil {
		t.Error("SinkEpoch without ShardedSinks should fail")
	}
	negEpoch := Config{
		Platform:     glucosymPlatform(),
		ShardedSinks: true,
		SinkEpoch:    -1,
		Sinks:        []Sink{ring},
	}
	if _, err := Run(context.Background(), negEpoch); err == nil {
		t.Error("negative SinkEpoch should fail")
	}
	// ShardedSinks + Continuous is no longer rejected: epoch barriers
	// bound the buffers, so serving fleets get contention-free sinks
	// (TestShardedSinksContinuousBounded exercises the run itself).
	shardedContinuous := Config{
		Platform:     glucosymPlatform(),
		Patients:     []int{0},
		Scenarios:    thinScenarios(300),
		Steps:        5,
		Continuous:   true,
		ShardedSinks: true,
		Sinks:        []Sink{ring},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := Run(ctx, shardedContinuous); err != nil {
		t.Errorf("ShardedSinks + Continuous should run with epoch delivery: %v", err)
	}
	noEvents := Config{
		Platform:  glucosymPlatform(),
		Telemetry: &TelemetryConfig{},
	}
	if _, err := Run(context.Background(), noEvents); err == nil {
		t.Error("Telemetry without Events should fail")
	}
}

// allKindScenarios builds a scenario subset guaranteed to cover every
// fault kind in the Table II campaign, plus a handful of extras, in
// program form.
func allKindScenarios(perKind int) []fault.Program {
	all := fault.Campaign(nil)
	taken := make(map[fault.Kind]int)
	var out []fault.Scenario
	for _, sc := range all {
		if taken[sc.Fault.Kind] < perKind {
			taken[sc.Fault.Kind]++
			out = append(out, sc)
		}
	}
	if len(taken) != len(fault.Kinds) {
		panic("campaign does not cover every fault kind")
	}
	return fault.Programs(out)
}

// TestFleetBatchedTelemetryMatchesPerSession: the shard-batched
// telemetry engine must emit exactly the robustness events — margin,
// arg-min rule, hazard, for every session and step — that a dedicated
// per-session scs.StreamSet produces when each retained trace is
// replayed through it offline, across every fault kind, with sensor
// noise, at several parallelism levels; and the traces must be
// byte-identical to a run without telemetry (telemetry never perturbs
// simulation).
func TestFleetBatchedTelemetryMatchesPerSession(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: allKindScenarios(3),
		Steps:     40,
		Seed:      13,
		Sensor:    &sensor.Config{NoiseSD: 2},
	}
	type robFull struct {
		rob, margin float64
		rule, mrule int
		hazard      trace.HazardType
	}
	fromVerdict := func(v scs.StreamVerdict) robFull {
		return robFull{rob: v.MinRobust, margin: v.Margin, rule: v.WorstRule, mrule: v.Rule, hazard: v.Hazard}
	}
	collect := func(cfg Config) (map[robKey]robFull, Result) {
		events := make(chan Event, 256)
		cfg.Events = events
		got := make(map[robKey]robFull)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for ev := range events {
				if ev.Kind != EventRobustness {
					continue
				}
				got[robKey{ev.Session, ev.Replica, ev.Step}] = robFull{
					rob: ev.Robustness, margin: ev.Margin,
					rule: ev.Rule, mrule: ev.MarginRule, hazard: ev.Hazard,
				}
			}
		}()
		res, err := Run(context.Background(), cfg)
		close(events)
		<-drained
		if err != nil {
			t.Fatal(err)
		}
		return got, res
	}

	plain, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	plainTraces := tracesCSV(t, plain.Traces)
	for _, parallel := range []int{1, 2, 4} {
		cfg := base
		cfg.Parallel = parallel
		cfg.Telemetry = &TelemetryConfig{}
		got, res := collect(cfg)

		// The oracle: one StreamSet per session, fed the session's trace.
		want := make(map[robKey]robFull)
		for i, tr := range res.Traces {
			set, err := scs.NewStreamSet(scs.TableI(), nil, scs.Params{}, tr.CycleMin)
			if err != nil {
				t.Fatal(err)
			}
			for j := range tr.Samples {
				v, err := set.Push(scs.StateFromSample(&tr.Samples[j]))
				if err != nil {
					t.Fatal(err)
				}
				want[robKey{i, 0, tr.Samples[j].Step}] = fromVerdict(v)
			}
		}
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("Parallel=%d: event counts differ: batched %d vs per-session replay %d",
				parallel, len(got), len(want))
		}
		hazards, violations := 0, 0
		for k, v := range got {
			if wv, ok := want[k]; !ok || wv != v {
				t.Fatalf("Parallel=%d event %+v differs: batched %+v vs per-session replay %+v",
					parallel, k, v, wv)
			}
			if v.margin < 0 {
				violations++
			}
			if v.hazard != trace.HazardNone {
				hazards++
			}
		}
		if violations == 0 || hazards == 0 {
			t.Fatalf("Parallel=%d: %d violations, %d hazards across an all-kind fault campaign — comparison is vacuous",
				parallel, violations, hazards)
		}
		if !bytes.Equal(tracesCSV(t, res.Traces), plainTraces) {
			t.Fatalf("Parallel=%d: telemetry changed the traces", parallel)
		}
	}
}

// TestFleetFromMonitorBatchedCAWT: FromMonitor telemetry served by the
// shard-batched context-aware monitor must reproduce the per-session
// CAWT fleet exactly — traces and robustness events alike — including
// under margin-scaled mitigation, where verdict margins feed back into
// insulin delivery.
func TestFleetFromMonitorBatchedCAWT(t *testing.T) {
	base := Config{
		Platform:   glucosymPlatform(),
		Patients:   []int{0, 3},
		Scenarios:  allKindScenarios(2),
		Steps:      40,
		Seed:       29,
		Sensor:     &sensor.Config{NoiseSD: 2},
		Mitigate:   true,
		Mitigation: closedloop.MitigationConfig{ScaleByMargin: true},
		Telemetry:  &TelemetryConfig{FromMonitor: true},
	}
	perCfg := base
	perCfg.NewMonitor = func(int) (monitor.Monitor, error) {
		return monitor.NewCAWOT(scs.TableI(), scs.Params{})
	}
	batchCfg := base
	batchCfg.NewBatchMonitor = func() (monitor.BatchMonitor, error) {
		return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
	}

	runOne := func(cfg Config) (map[robKey]robVal, []byte, Result) {
		got, res := collectRobustness(t, cfg)
		return got, tracesCSV(t, res.Traces), res
	}
	gotPer, tracesPer, resPer := runOne(perCfg)
	gotBatch, tracesBatch, resBatch := runOne(batchCfg)
	if resPer.Alarmed == 0 {
		t.Fatal("monitor never alarmed — comparison is vacuous")
	}
	if resPer.Alarmed != resBatch.Alarmed || resPer.Hazardous != resBatch.Hazardous {
		t.Fatalf("counters differ: per %+v batch %+v", resPer, resBatch)
	}
	if !bytes.Equal(tracesPer, tracesBatch) {
		t.Fatal("batched-CAWT traces differ from per-session CAWT traces")
	}
	if len(gotPer) == 0 || len(gotPer) != len(gotBatch) {
		t.Fatalf("event counts differ: %d vs %d", len(gotPer), len(gotBatch))
	}
	for k, v := range gotPer {
		if bv, ok := gotBatch[k]; !ok || bv != v {
			t.Fatalf("event %+v differs: per-session %+v vs batched %+v", k, v, bv)
		}
	}
}

// TestFleetBatchedSteppingMatchesPerSession: the shard-batched
// struct-of-arrays patient stepping must produce byte-identical traces,
// identical robustness telemetry, and identical counters to the
// per-session scalar oracle (scalarPlatform: one NewPatient model per
// session, stepped on its own) — across every fault kind, with sensor
// noise, with margin-scaled mitigation on and off, at several
// parallelism levels.
func TestFleetBatchedSteppingMatchesPerSession(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: allKindScenarios(3),
		Steps:     50,
		Seed:      31,
		Sensor:    &sensor.Config{NoiseSD: 2.5},
		Telemetry: &TelemetryConfig{},
	}
	type robM struct {
		rob, margin float64
		rule        int
	}
	collect := func(cfg Config) (map[robKey]robM, Result) {
		events := make(chan Event, 256)
		cfg.Events = events
		got := make(map[robKey]robM)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for ev := range events {
				if ev.Kind != EventRobustness {
					continue
				}
				got[robKey{ev.Session, ev.Replica, ev.Step}] = robM{ev.Robustness, ev.Margin, ev.Rule}
			}
		}()
		res, err := Run(context.Background(), cfg)
		close(events)
		<-drained
		if err != nil {
			t.Fatal(err)
		}
		return got, res
	}
	for _, mitigate := range []bool{false, true} {
		cfg := base
		if mitigate {
			cfg.NewMonitor = func(int) (monitor.Monitor, error) {
				return monitor.NewCAWOT(scs.TableI(), scs.Params{})
			}
			cfg.Mitigate = true
			cfg.Mitigation = closedloop.MitigationConfig{ScaleByMargin: true}
		}
		for _, parallel := range []int{1, 2, 4} {
			batched := cfg
			batched.Parallel = parallel
			oracle := cfg
			oracle.Parallel = parallel
			oracle.Platform = scalarPlatform(cfg.Platform)

			gotB, resB := collect(batched)
			gotP, resP := collect(oracle)
			tracesB := tracesCSV(t, resB.Traces)
			tracesP := tracesCSV(t, resP.Traces)

			label := "mitigate=" + map[bool]string{false: "off", true: "on"}[mitigate]
			violations := 0
			for _, v := range gotP {
				if v.margin < 0 {
					violations++
				}
			}
			if violations == 0 {
				t.Fatalf("%s Parallel=%d: no STL violations across an all-kind campaign — comparison is vacuous",
					label, parallel)
			}
			if mitigate && resP.Alarmed == 0 {
				t.Fatalf("%s Parallel=%d: monitor never alarmed — mitigation leg is vacuous", label, parallel)
			}
			if resB.Hazardous != resP.Hazardous || resB.Alarmed != resP.Alarmed || resB.Steps != resP.Steps {
				t.Fatalf("%s Parallel=%d: counters differ: batched %+v vs per-session %+v",
					label, parallel, resB, resP)
			}
			if len(gotB) == 0 || len(gotB) != len(gotP) {
				t.Fatalf("%s Parallel=%d: robustness event counts differ: %d vs %d",
					label, parallel, len(gotB), len(gotP))
			}
			for k, v := range gotB {
				if pv, ok := gotP[k]; !ok || pv != v {
					t.Fatalf("%s Parallel=%d: event %+v differs: batched %+v vs per-session %+v",
						label, parallel, k, v, pv)
				}
			}
			if !bytes.Equal(tracesB, tracesP) {
				t.Fatalf("%s Parallel=%d: traces differ between batched and per-session stepping", label, parallel)
			}
		}
	}
}

// TestFleetBatchedSteppingUVA runs the second platform's batch backend
// through the same oracle comparison (single parallelism level; the
// scheduling-independence legs above already cover parallelism).
func TestFleetBatchedSteppingUVA(t *testing.T) {
	base := Config{
		Platform: Platform{
			Name:        "t1ds2013",
			NumPatients: uvapadova.NumPatients,
			NewPatient: func(idx int) (closedloop.Patient, error) {
				return uvapadova.New(idx)
			},
			NewBatchPatient: func(lanes int) (sim.BatchPatient, error) {
				return uvapadova.NewBatch(lanes)
			},
			NewController: func(basal float64) (control.Controller, error) {
				return control.NewBasalBolus(control.BasalBolusConfig{Basal: basal, ISF: 40})
			},
		},
		Patients:  []int{0, 5},
		Scenarios: allKindScenarios(1),
		Steps:     40,
		Seed:      17,
		Sensor:    &sensor.Config{NoiseSD: 2},
	}
	oracle := base
	oracle.Platform = scalarPlatform(base.Platform)
	resB, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := Run(context.Background(), oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tracesCSV(t, resB.Traces), tracesCSV(t, resP.Traces)) {
		t.Fatal("UVA-Padova batched traces differ from per-session stepping")
	}
}

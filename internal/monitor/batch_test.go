package monitor

import (
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/trace"
)

// randObs builds a plausible observation stream.
func randObs(rng *rand.Rand) Observation {
	return Observation{
		CGM:      60 + 250*rng.Float64(),
		BGPrime:  -3 + 6*rng.Float64(),
		IOB:      5 * rng.Float64(),
		IOBPrime: -0.2 + 0.4*rng.Float64(),
		Rate:     4 * rng.Float64(),
		Action:   trace.Action(1 + rng.Intn(4)),
	}
}

func trainSmallMLP(t *testing.T, rng *rand.Rand) *ml.MLP {
	t.Helper()
	X := make([][]float64, 400)
	y := make([]int, len(X))
	for i := range X {
		o := randObs(rng)
		X[i] = Features(o)
		if o.CGM < 90 {
			y[i] = 1
		} else if o.CGM > 250 {
			y[i] = 2
		}
	}
	m, err := ml.FitMLP(X, y, ml.MLPConfig{Hidden: []int{24, 12}, Classes: 3, Epochs: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scalarVerdict is the test-side reference for an ML verdict: the first
// most probable class decides alarm and hazard (binary class 1 and
// multi-class 1 are H1, multi-class 2 is H2) and its probability is the
// confidence.
func scalarVerdict(proba []float64) Verdict {
	class := 0
	for i, p := range proba {
		if p > proba[class] {
			class = i
		}
	}
	v := Verdict{Confidence: proba[class]}
	switch {
	case class == 1 || (class > 0 && len(proba) == 2):
		v.Alarm, v.Hazard = true, trace.HazardH1
	case class > 1:
		v.Alarm, v.Hazard = true, trace.HazardH2
	}
	return v
}

// TestBatchMLMatchesPerSessionMonitor: the batched MLP monitor and its
// per-session one-lane view must both reproduce the model's scalar
// PredictProba exactly.
func TestBatchMLMatchesPerSessionMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mlp := trainSmallMLP(t, rng)

	per, err := NewMLMonitor("MLP", mlp.NewBatch())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewBatchML("MLP", mlp.NewBatch())
	if err != nil {
		t.Fatal(err)
	}

	const lanesN = 33
	batch.ResetLanes(lanesN)
	lanes := make([]int, lanesN)
	obs := make([]Observation, lanesN)
	out := make([]Verdict, lanesN)
	alarms := 0
	for step := 0; step < 20; step++ {
		for k := range lanes {
			lanes[k] = k
			obs[k] = randObs(rng)
		}
		batch.StepBatch(lanes, obs, out)
		for k := range lanes {
			want := scalarVerdict(mlp.PredictProba(Features(obs[k])))
			if want.Alarm {
				alarms++
			}
			if out[k] != want {
				t.Fatalf("step %d lane %d: batch %+v, scalar %+v", step, k, out[k], want)
			}
			if got := per.Step(obs[k]); got != want {
				t.Fatalf("step %d lane %d: per-session %+v, scalar %+v", step, k, got, want)
			}
		}
	}
	if alarms == 0 {
		t.Fatal("model never alarmed — comparison is vacuous")
	}
}

// trainSmallLSTM fits a small LSTM over random observation windows.
func trainSmallLSTM(t *testing.T, rng *rand.Rand, window int) *ml.LSTM {
	t.Helper()
	X := make([][][]float64, 150)
	y := make([]int, len(X))
	for i := range X {
		w := make([][]float64, window)
		var lastCGM float64
		for tt := range w {
			o := randObs(rng)
			lastCGM = o.CGM
			w[tt] = Features(o)
		}
		X[i] = w
		if lastCGM < 90 {
			y[i] = 1
		}
	}
	lstm, err := ml.FitLSTM(X, y, ml.LSTMConfig{Units: []int{10}, Window: window, Epochs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return lstm
}

func TestBatchSequenceMatchesPerSessionMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const window = 4
	lstm := trainSmallLSTM(t, rng, window)
	var err error

	const lanesN = 7
	perLane := make([]*SequenceMonitor, lanesN)
	windows := make([][][]float64, lanesN) // test-side sliding windows
	for i := range perLane {
		perLane[i], err = NewSequenceMonitor("LSTM", lstm.NewBatch(), window)
		if err != nil {
			t.Fatal(err)
		}
	}
	batch, err := NewBatchSequence("LSTM", lstm.NewBatch(), window)
	if err != nil {
		t.Fatal(err)
	}
	batch.ResetLanes(lanesN)
	// expect slides lane k's window and scores it with the model's
	// scalar PredictProba once full.
	expect := func(k int, o Observation) Verdict {
		windows[k] = append(windows[k], Features(o))
		if len(windows[k]) > window {
			windows[k] = windows[k][1:]
		}
		if len(windows[k]) < window {
			return Verdict{}
		}
		return scalarVerdict(lstm.PredictProba(windows[k]))
	}

	// Lanes step at different cadences: lane k skips steps where
	// (step+k)%3 == 0, so windows fill at different times.
	var lanes []int
	var obs []Observation
	var out []Verdict
	for step := 0; step < 25; step++ {
		lanes, obs = lanes[:0], obs[:0]
		for k := 0; k < lanesN; k++ {
			if (step+k)%3 == 0 {
				continue
			}
			lanes = append(lanes, k)
			obs = append(obs, randObs(rng))
		}
		if cap(out) < len(obs) {
			out = make([]Verdict, len(obs))
		}
		out = out[:len(obs)]
		batch.StepBatch(lanes, obs, out)
		for i, k := range lanes {
			want := expect(k, obs[i])
			if out[i] != want {
				t.Fatalf("step %d lane %d: batch %+v, scalar %+v", step, k, out[i], want)
			}
			if got := perLane[k].Step(obs[i]); got != want {
				t.Fatalf("step %d lane %d: per-session %+v, scalar %+v", step, k, got, want)
			}
		}
	}

	// Resetting one lane restarts its window fill without touching others.
	batch.ResetLane(2)
	perLane[2].Reset()
	windows[2] = nil
	for step := 0; step < window+1; step++ {
		o := randObs(rng)
		lanes = append(lanes[:0], 2)
		obs = append(obs[:0], o)
		out = out[:1]
		batch.StepBatch(lanes, obs, out)
		want := expect(2, o)
		if out[0] != want {
			t.Fatalf("post-reset step %d: batch %+v, scalar %+v", step, out[0], want)
		}
		if got := perLane[2].Step(o); got != want {
			t.Fatalf("post-reset step %d: per-session %+v, scalar %+v", step, got, want)
		}
	}
}

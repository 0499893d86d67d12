package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// syntheticData builds a deterministic, separable-ish 3-class problem.
func syntheticData(n, d int, rng *rand.Rand) (X [][]float64, y []int) {
	X = make([][]float64, n)
	y = make([]int, n)
	for i := range X {
		cls := rng.Intn(3)
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(cls)*1.5
		}
		X[i] = row
		y[i] = cls
	}
	return X, y
}

func TestMLPBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := syntheticData(300, 6, rng)
	m, err := FitMLP(X, y, MLPConfig{Hidden: []int{32, 16}, Classes: 3, Epochs: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	Q, _ := syntheticData(157, 6, rng) // odd size exercises the partial tile
	batch := m.NewBatch()
	got := make([]int, len(Q))
	batch.PredictBatchInto(Q, got)
	for i, x := range Q {
		if want := m.Predict(x); got[i] != want {
			t.Fatalf("sample %d: batch class %d, per-sample %d", i, got[i], want)
		}
	}
	// Reuse with a smaller batch must not read stale scratch.
	got2 := make([]int, 3)
	batch.PredictBatchInto(Q[:3], got2)
	for i := range got2 {
		if got2[i] != got[i] {
			t.Fatalf("reused batch diverged at %d", i)
		}
	}
}

// TestMLPPredictConcurrent: one trained model serves several goroutines
// at once (fleet shards share it through per-session monitors), so
// concurrent PredictProba calls must return exactly the serial
// probabilities. Under -race this also proves inference writes no
// shared state.
func TestMLPPredictConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := syntheticData(300, 6, rng)
	m, err := FitMLP(X, y, MLPConfig{Hidden: []int{32, 16}, Classes: 3, Epochs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	Q, _ := syntheticData(200, 6, rng)
	want := make([][]float64, len(Q))
	for i, x := range Q {
		want[i] = m.PredictProba(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, x := range Q {
				got := m.PredictProba(x)
				for c := range got {
					if got[c] != want[i][c] {
						t.Errorf("sample %d class %d: concurrent %v, serial %v", i, c, got[c], want[i][c])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestTreeBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := syntheticData(400, 6, rng)
	tree, err := FitTree(X, y, TreeConfig{Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	Q, _ := syntheticData(101, 6, rng)
	got := make([]int, len(Q))
	tree.PredictBatchInto(Q, got)
	for i, x := range Q {
		if want := tree.Predict(x); got[i] != want {
			t.Fatalf("sample %d: batch class %d, per-sample %d", i, got[i], want)
		}
	}
}

// syntheticWindows builds n deterministic two-class windows of window
// frames x feat features.
func syntheticWindows(n, window, feat int, rng *rand.Rand) (X [][][]float64, y []int) {
	X = make([][][]float64, n)
	y = make([]int, n)
	for i := range X {
		cls := rng.Intn(2)
		w := make([][]float64, window)
		for tt := range w {
			frame := make([]float64, feat)
			for j := range frame {
				frame[j] = rng.NormFloat64() + float64(cls)
			}
			w[tt] = frame
		}
		X[i] = w
		y[i] = cls
	}
	return X, y
}

// TestLSTMBatchMatchesPerSample: the gate-blocked batch kernel must give
// exactly the per-sample probabilities (same bits, not just the same
// argmax) for one-, two- and three-layer stacks at batch widths 1, 3
// and 37.
func TestLSTMBatchMatchesPerSample(t *testing.T) {
	const window, feat = 4, 5
	for _, units := range [][]int{{8}, {16, 8}, {12, 8, 4}} {
		rng := rand.New(rand.NewSource(7))
		X, y := syntheticWindows(120, window, feat, rng)
		m, err := FitLSTM(X, y, LSTMConfig{Units: units, Window: window, Epochs: 2}, rng)
		if err != nil {
			t.Fatal(err)
		}
		batch := m.NewBatch()
		classes := m.Classes()
		for _, width := range []int{1, 3, 37} {
			proba := make([]float64, width*classes)
			got := make([]int, width)
			for start := 0; start+width <= len(X); start += 41 {
				win := X[start : start+width]
				batch.PredictProbaSeqBatchInto(win, proba)
				batch.PredictSeqBatchInto(win, got)
				for k, w := range win {
					want := m.PredictProba(w)
					for c, p := range want {
						if math.Float64bits(proba[k*classes+c]) != math.Float64bits(p) {
							t.Fatalf("units %v width %d window %d class %d: batch %v, per-sample %v",
								units, width, start+k, c, proba[k*classes+c], p)
						}
					}
					if cls := m.Predict(w); got[k] != cls {
						t.Fatalf("units %v width %d window %d: batch class %d, per-sample %d",
							units, width, start+k, got[k], cls)
					}
				}
			}
		}
	}
}

func TestBatchAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := syntheticData(200, 6, rng)
	m, err := FitMLP(X, y, MLPConfig{Hidden: []int{32}, Classes: 3, Epochs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.NewBatch()
	out := make([]int, 64)
	batch.PredictBatchInto(X[:64], out) // warm the scratch
	allocs := testing.AllocsPerRun(10, func() {
		batch.PredictBatchInto(X[:64], out)
	})
	if allocs != 0 {
		t.Errorf("warm MLP batch predict allocates %v times per call, want 0", allocs)
	}

	W, wy := syntheticWindows(80, 6, 6, rng)
	lm, err := FitLSTM(W, wy, LSTMConfig{Units: []int{16, 8}, Window: 6, Epochs: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	lbatch := lm.NewBatch()
	proba := make([]float64, 32*lm.Classes())
	lbatch.PredictProbaSeqBatchInto(W[:32], proba) // warm the scratch
	allocs = testing.AllocsPerRun(10, func() {
		lbatch.PredictProbaSeqBatchInto(W[:32], proba)
		lbatch.PredictSeqBatchInto(W[:32], out)
	})
	if allocs != 0 {
		t.Errorf("warm LSTM batch predict allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkLSTMBatchForward times one batched LSTM inference call over
// width six-step windows of the monitors' six features, for the
// apsbench paper suite's 16-8 stack and the default 32-16 one. Width 1
// is the per-session monitor's call (Tables V-VI replay); width 32 a
// fleet shard's.
func BenchmarkLSTMBatchForward(b *testing.B) {
	for _, units := range [][]int{{16, 8}, {32, 16}} {
		rng := rand.New(rand.NewSource(11))
		W, y := syntheticWindows(64, 6, 6, rng)
		m, err := FitLSTM(W, y, LSTMConfig{Units: units, Window: 6, Epochs: 1}, rng)
		if err != nil {
			b.Fatal(err)
		}
		for _, width := range []int{1, 32} {
			b.Run(fmt.Sprintf("units=%d-%d/width=%d", units[0], units[1], width), func(b *testing.B) {
				batch := m.NewBatch()
				proba := make([]float64, width*m.Classes())
				batch.PredictProbaSeqBatchInto(W[:width], proba) // warm the scratch
				for b.Loop() {
					batch.PredictProbaSeqBatchInto(W[:width], proba)
				}
			})
		}
	}
}

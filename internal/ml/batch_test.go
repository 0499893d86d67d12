package ml

import (
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

func TestLSTMBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const window, feat = 4, 5
	n := 120
	X := make([][][]float64, n)
	y := make([]int, n)
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
	m, err := FitLSTM(X, y, LSTMConfig{Units: []int{12, 8}, Window: window, Epochs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.NewBatch()
	got := make([]int, 37)
	batch.PredictSeqBatchInto(X[:37], got)
	for i := 0; i < 37; i++ {
		if want := m.Predict(X[i]); got[i] != want {
			t.Fatalf("window %d: batch class %d, per-sample %d", i, got[i], want)
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
		t.Errorf("warm batch predict allocates %v times per call, want 0", allocs)
	}
}

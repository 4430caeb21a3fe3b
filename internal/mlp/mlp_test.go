package mlp

import (
	"encoding/json"
	"math"
	"testing"

	"dlrmperf/internal/xrand"
)

// synth generates a smooth nonlinear regression dataset resembling
// log-kernel-time surfaces: y = f(x) over inputs in [0, 12]^d.
func synth(n, d int, seed uint64) ([][]float64, []float64) {
	rng := xrand.New(seed)
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64() * 12
		}
		y := 0.3*x[0] + 0.1*x[0]*x[1%d]/4 + math.Sin(x[0]/2)
		X[i] = x
		Y[i] = y
	}
	return X, Y
}

func TestTrainFitsSmoothFunction(t *testing.T) {
	X, Y := synth(800, 3, 1)
	n := Train(X, Y, DefaultConfig(), 42)
	mse := MSE(n, X, Y)
	if mse > 0.02 {
		t.Fatalf("train MSE = %v, want < 0.02", mse)
	}
}

func TestTrainGeneralizes(t *testing.T) {
	X, Y := synth(1000, 3, 2)
	Xte, Yte := synth(200, 3, 99)
	n := Train(X, Y, DefaultConfig(), 42)
	mse := MSE(n, Xte, Yte)
	if mse > 0.05 {
		t.Fatalf("test MSE = %v, want < 0.05", mse)
	}
}

func TestSGDAlsoConverges(t *testing.T) {
	X, Y := synth(600, 2, 3)
	cfg := Config{HiddenLayers: 2, Width: 32, Optimizer: SGD, LR: 1e-3, Epochs: 80, BatchSize: 32}
	n := Train(X, Y, cfg, 7)
	if mse := MSE(n, X, Y); mse > 0.2 {
		t.Fatalf("SGD MSE = %v, want < 0.2", mse)
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, Y := synth(200, 2, 4)
	cfg := Config{HiddenLayers: 2, Width: 16, Optimizer: Adam, LR: 1e-3, Epochs: 5, BatchSize: 32}
	a := Train(X, Y, cfg, 11)
	b := Train(X, Y, cfg, 11)
	for i := 0; i < 10; i++ {
		x := []float64{float64(i), float64(i) / 2}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same-seed training is not deterministic")
		}
	}
}

func TestPredictPanicsOnWrongDim(t *testing.T) {
	X, Y := synth(100, 3, 5)
	n := Train(X, Y, Config{HiddenLayers: 1, Width: 8, Optimizer: Adam, LR: 1e-3, Epochs: 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input dim did not panic")
		}
	}()
	n.Predict([]float64{1})
}

func TestNumParams(t *testing.T) {
	n := NewNet([]int{4, 8, 1}, xrand.New(1))
	want := 4*8 + 8 + 8*1 + 1
	if n.NumParams() != want {
		t.Errorf("NumParams = %d, want %d", n.NumParams(), want)
	}
}

func TestGridSearchPicksReasonableConfig(t *testing.T) {
	X, Y := synth(500, 2, 6)
	space := SearchSpace{
		HiddenLayers: []int{1, 2},
		Widths:       []int{8, 32},
		Optimizers:   []string{Adam},
		LRs:          []float64{1e-3, 5e-3},
		Epochs:       20,
		BatchSize:    32,
	}
	net, cfg, valErr := GridSearch(X, Y, space, 13)
	if net == nil {
		t.Fatal("grid search returned nil")
	}
	if valErr > 0.3 {
		t.Errorf("grid-search val MSE = %v", valErr)
	}
	if cfg.Width != 8 && cfg.Width != 32 {
		t.Errorf("config outside space: %+v", cfg)
	}
}

func TestPaperSearchSpaceSize(t *testing.T) {
	// Table II: 5 layer counts x 4 widths x 2 optimizers x 7 LRs = 280.
	if got := len(PaperSearchSpace().Configs()); got != 280 {
		t.Errorf("paper grid size = %d, want 280", got)
	}
}

func TestStandardizationGuardsConstantFeatures(t *testing.T) {
	// A constant feature must not produce NaNs via zero std.
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	Y := []float64{1, 2, 3, 4}
	n := Train(X, Y, Config{HiddenLayers: 1, Width: 8, Optimizer: Adam, LR: 1e-2, Epochs: 50, BatchSize: 2}, 3)
	got := n.Predict([]float64{2.5, 5})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("prediction is %v", got)
	}
}

func TestNetJSONRoundTrip(t *testing.T) {
	X, Y := synth(300, 3, 8)
	n := Train(X, Y, Config{HiddenLayers: 2, Width: 16, Optimizer: Adam, LR: 2e-3, Epochs: 10, BatchSize: 32}, 9)
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var got Net
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) / 2, float64(i) / 3, float64(i) / 5}
		if got.Predict(x) != n.Predict(x) {
			t.Fatal("round trip changed predictions")
		}
	}
}

// TestNetUnmarshalRejectsBadShapes: a decoded net whose shapes do not
// fit fails Check.
func TestNetUnmarshalRejectsBadShapes(t *testing.T) {
	for _, tc := range []struct{ name, data string }{
		{"weight shape mismatch", `{"sizes":[2,1],"weights":[[1,2,3]],"biases":[[0]],"feat_mean":[0,0],"feat_std":[1,1]}`},
		{"single-layer net", `{"sizes":[2]}`},
	} {
		var n Net
		if err := json.Unmarshal([]byte(tc.data), &n); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := n.Check(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

package mlp

import (
	"fmt"
	"math"

	"dlrmperf/internal/xrand"
)

// Optimizer names.
const (
	Adam = "Adam"
	SGD  = "SGD"
)

// Config is one training configuration from the Table II search space.
type Config struct {
	// HiddenLayers is the number of hidden layers.
	HiddenLayers int
	// Width is the neuron count per hidden layer.
	Width int
	// Optimizer is Adam or SGD.
	Optimizer string
	// LR is the learning rate. Following the paper, SGD learning rates
	// are scaled by 10x relative to the listed values.
	LR float64
	// Epochs over the training set.
	Epochs int
	// BatchSize for minibatch training.
	BatchSize int
}

// String renders the configuration compactly.
func (c Config) String() string {
	return fmt.Sprintf("%dx%d %s lr=%g", c.HiddenLayers, c.Width, c.Optimizer, c.LR)
}

// Params returns the trainable parameter count of a network of this
// configuration over in input features.
func (c Config) Params(in int) int {
	p := 0
	for range c.HiddenLayers {
		p += (in + 1) * c.Width
		in = c.Width
	}
	return p + in + 1
}

// Work estimates what Train of this configuration costs on rows samples
// of in features: rows × epochs × parameters, in multiply-adds up to a
// constant factor.
func (c Config) Work(rows, in int) float64 {
	return float64(rows) * float64(c.Epochs) * float64(c.Params(in))
}

// DefaultConfig is the fast configuration used when a full grid search is
// not requested.
func DefaultConfig() Config {
	return Config{HiddenLayers: 3, Width: 96, Optimizer: Adam, LR: 2e-3, Epochs: 90, BatchSize: 64}
}

// Train fits a network to (X, Y) under cfg. Y values are the
// (log-transformed) regression targets.
func Train(X [][]float64, Y []float64, cfg Config, seed uint64) *Net {
	if len(X) == 0 || len(X) != len(Y) {
		panic("mlp: bad training set")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 40
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	rng := xrand.New(seed)
	sizes := []int{len(X[0])}
	for i := 0; i < cfg.HiddenLayers; i++ {
		sizes = append(sizes, cfg.Width)
	}
	sizes = append(sizes, 1)
	n := NewNet(sizes, rng)
	n.setStandardization(X)

	lr := cfg.LR
	if cfg.Optimizer == SGD {
		lr *= 10 // the paper scales SGD learning rates by 10
	}

	g := n.newGrads()
	acts := n.newActs()
	deltas := n.newActs()
	live := make([]int, 0, cfg.Width)

	// Adam state.
	var mW, vW, mB, vB [][]float64
	if cfg.Optimizer == Adam {
		for l := range n.Weights {
			mW = append(mW, make([]float64, len(n.Weights[l])))
			vW = append(vW, make([]float64, len(n.Weights[l])))
			mB = append(mB, make([]float64, len(n.Biases[l])))
			vB = append(vB, make([]float64, len(n.Biases[l])))
		}
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	idx := rng.Perm(len(X))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			g.zero()
			for _, i := range idx[start:end] {
				n.forward(X[i], acts)
				n.backward(Y[i], acts, g, deltas, live)
			}
			scale := 1 / float64(end-start)
			step++
			// The Adam bias corrections depend only on the step, so they
			// are computed once here instead of twice per layer.
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			for l := range n.Weights {
				applyUpdate(n.Weights[l], g.w[l], scale, lr, cfg.Optimizer, mW, vW, l, bc1, bc2, beta1, beta2, eps)
				applyUpdate(n.Biases[l], g.b[l], scale, lr, cfg.Optimizer, mB, vB, l, bc1, bc2, beta1, beta2, eps)
			}
		}
	}
	return n
}

func applyUpdate(params, grad []float64, scale, lr float64, opt string,
	m, v [][]float64, l int, bc1, bc2, beta1, beta2, eps float64) {
	if opt != Adam {
		grad = grad[:len(params)]
		for i := range params {
			params[i] -= lr * grad[i] * scale
		}
		return
	}
	ml, vl := m[l][:len(params)], v[l][:len(params)]
	grad = grad[:len(params)]
	for i := range params {
		gi := grad[i] * scale
		ml[i] = beta1*ml[i] + (1-beta1)*gi
		vl[i] = beta2*vl[i] + (1-beta2)*gi*gi
		params[i] -= lr * (ml[i] / bc1) / (math.Sqrt(vl[i]/bc2) + eps)
	}
}

// MSE returns the mean squared error of net on (X, Y).
func MSE(n *Net, X [][]float64, Y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	s := 0.0
	for i := range X {
		d := n.Predict(X[i]) - Y[i]
		s += d * d
	}
	return s / float64(len(X))
}

// SearchSpace is a hyperparameter grid (Table II).
type SearchSpace struct {
	HiddenLayers []int
	Widths       []int
	Optimizers   []string
	LRs          []float64
	Epochs       int
	BatchSize    int
}

// PaperSearchSpace returns the full Table II grid: layers 3-7, widths
// 128-1024, Adam/SGD, seven learning rates.
func PaperSearchSpace() SearchSpace {
	return SearchSpace{
		HiddenLayers: []int{3, 4, 5, 6, 7},
		Widths:       []int{128, 256, 512, 1024},
		Optimizers:   []string{Adam, SGD},
		LRs:          []float64{1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2},
		Epochs:       60,
		BatchSize:    64,
	}
}

// FastSearchSpace is the pruned grid behind `experiments -grid` and
// `dlrmperf-train -grid`. Default calibration runs search nothing: they
// train DefaultConfig (or the caller's fixed configuration).
func FastSearchSpace() SearchSpace {
	return SearchSpace{
		HiddenLayers: []int{2, 3},
		Widths:       []int{48, 64},
		Optimizers:   []string{Adam},
		LRs:          []float64{2e-3, 5e-3},
		Epochs:       50,
		BatchSize:    64,
	}
}

// Configs enumerates the grid.
func (s SearchSpace) Configs() []Config {
	var out []Config
	for _, h := range s.HiddenLayers {
		for _, w := range s.Widths {
			for _, o := range s.Optimizers {
				for _, lr := range s.LRs {
					out = append(out, Config{
						HiddenLayers: h, Width: w, Optimizer: o, LR: lr,
						Epochs: s.Epochs, BatchSize: s.BatchSize,
					})
				}
			}
		}
	}
	return out
}

// Work estimates what GridSearch over the space costs on rows samples
// of in features, in the unit of Config.Work: every configuration
// trains on four fifths of the rows.
func (s SearchSpace) Work(rows, in int) float64 {
	w := 0.0
	for _, c := range s.Configs() {
		w += c.Work(rows*4/5, in)
	}
	return w
}

// GridSearch trains one network per configuration on the train split and
// returns the network with the lowest validation MSE, the winning
// configuration, and its validation error. The split is 80/20 by index
// permutation of seed.
func GridSearch(X [][]float64, Y []float64, space SearchSpace, seed uint64) (*Net, Config, float64) {
	rng := xrand.New(seed)
	perm := rng.Perm(len(X))
	cut := len(X) * 4 / 5
	if cut < 1 {
		cut = len(X)
	}
	trX := make([][]float64, 0, cut)
	trY := make([]float64, 0, cut)
	vaX := make([][]float64, 0, len(X)-cut)
	vaY := make([]float64, 0, len(X)-cut)
	for i, p := range perm {
		if i < cut {
			trX = append(trX, X[p])
			trY = append(trY, Y[p])
		} else {
			vaX = append(vaX, X[p])
			vaY = append(vaY, Y[p])
		}
	}
	if len(vaX) == 0 {
		vaX, vaY = trX, trY
	}

	var (
		best    *Net
		bestCfg Config
		bestErr = math.Inf(1)
	)
	for i, cfg := range space.Configs() {
		n := Train(trX, trY, cfg, seed+uint64(i)*7919)
		if err := MSE(n, vaX, vaY); err < bestErr {
			best, bestCfg, bestErr = n, cfg, err
		}
	}
	return best, bestCfg, bestErr
}

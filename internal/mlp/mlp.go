// Package mlp is a small, dependency-free multilayer-perceptron library:
// dense layers with ReLU, MSE loss, SGD and Adam optimizers, minibatch
// training, and the hyperparameter grid search of Table II. It exists to
// train the paper's ML-based kernel performance models (GEMM, transpose,
// tril, conv) on microbenchmark data.
//
// Inputs are standardized internally (per-feature mean/std computed on
// the training set); callers provide already log-transformed features and
// targets, following Section III-B2's preprocessing.
package mlp

import (
	"fmt"
	"math"
	"sync"

	"dlrmperf/internal/xrand"
)

// Net is a trained feed-forward network with ReLU hidden activations and
// a linear scalar output. Its exported fields are its serialized form:
// architecture, weights and input standardization, so a calibrated
// performance model can live in a shared asset database. A net is
// read-only once trained or decoded; Check reports whether a decoded
// one is well formed.
type Net struct {
	// Sizes[0] is the input width and the last size the output width.
	Sizes []int `json:"sizes"`
	// Weights[l] is a flattened (out x in) matrix; Biases[l] has length out.
	Weights [][]float64 `json:"weights"`
	Biases  [][]float64 `json:"biases"`
	// Feature standardization parameters.
	FeatMean []float64 `json:"feat_mean"`
	FeatStd  []float64 `json:"feat_std"`
	// scratch recycles Predict's per-layer activation buffers
	// (*[][]float64, shaped by newActs): a trained net is shared by
	// every goroutine walking a graph and is asked once per kernel.
	scratch sync.Pool
}

// NewNet builds an untrained network with the given layer sizes
// (sizes[0] = input features, sizes[len-1] = 1 output), using He
// initialization from rng.
func NewNet(sizes []int, rng *xrand.Rand) *Net {
	if len(sizes) < 2 {
		panic("mlp: need at least input and output sizes")
	}
	n := &Net{Sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		n.Weights = append(n.Weights, w)
		n.Biases = append(n.Biases, make([]float64, out))
	}
	n.FeatMean = make([]float64, sizes[0])
	n.FeatStd = make([]float64, sizes[0])
	for i := range n.FeatStd {
		n.FeatStd[i] = 1
	}
	return n
}

// NumParams returns the trainable parameter count.
func (n *Net) NumParams() int {
	total := 0
	for l := range n.Weights {
		total += len(n.Weights[l]) + len(n.Biases[l])
	}
	return total
}

// Check reports why n is not a well-formed network, or nil: it needs an
// input and an output layer, weights and biases that fit its sizes, and
// a standardization of its input width whose every std is positive. A
// trained net always passes; a decoded one must be checked before it
// predicts.
func (n *Net) Check() error {
	if len(n.Sizes) < 2 {
		return fmt.Errorf("mlp: serialized net has %d layer sizes", len(n.Sizes))
	}
	if len(n.Weights) != len(n.Sizes)-1 || len(n.Biases) != len(n.Sizes)-1 {
		return fmt.Errorf("mlp: layer count mismatch")
	}
	for l := 0; l+1 < len(n.Sizes); l++ {
		if len(n.Weights[l]) != n.Sizes[l]*n.Sizes[l+1] || len(n.Biases[l]) != n.Sizes[l+1] {
			return fmt.Errorf("mlp: layer %d shape mismatch", l)
		}
	}
	if len(n.FeatMean) != n.Sizes[0] || len(n.FeatStd) != n.Sizes[0] {
		return fmt.Errorf("mlp: standardization shape mismatch")
	}
	for i, s := range n.FeatStd {
		if !(s > 0) {
			return fmt.Errorf("mlp: feature %d has std %v, want > 0", i, s)
		}
	}
	return nil
}

// setStandardization computes per-feature mean/std over xs.
func (n *Net) setStandardization(xs [][]float64) {
	d := n.Sizes[0]
	mean := make([]float64, d)
	for _, x := range xs {
		for i := 0; i < d; i++ {
			mean[i] += x[i]
		}
	}
	for i := range mean {
		mean[i] /= float64(len(xs))
	}
	std := make([]float64, d)
	for _, x := range xs {
		for i := 0; i < d; i++ {
			dd := x[i] - mean[i]
			std[i] += dd * dd
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / float64(len(xs)))
		if std[i] < 1e-8 {
			std[i] = 1
		}
	}
	n.FeatMean, n.FeatStd = mean, std
}

// forward runs the network, storing activations into acts (one slice per
// layer, acts[0] = standardized input). Returns the scalar output.
func (n *Net) forward(x []float64, acts [][]float64) float64 {
	in := acts[0]
	for i := range in {
		in[i] = (x[i] - n.FeatMean[i]) / n.FeatStd[i]
	}
	for l := range n.Weights {
		out := acts[l+1]
		w := n.Weights[l]
		b := n.Biases[l]
		nin := n.Sizes[l]
		nout := n.Sizes[l+1]
		src := acts[l]
		relu := l < len(n.Weights)-1
		o := 0
		// Four output neurons at a time: each input is loaded once for
		// four rows of w. Every sum still starts at its bias and adds
		// its terms left to right in one accumulator, the addition
		// sequence of dotAcc, so the outputs are bit-identical to the
		// one-neuron loop below, which takes the remainder.
		for ; o+3 < nout; o += 4 {
			w0 := w[o*nin : (o+1)*nin][:len(src)]
			w1 := w[(o+1)*nin : (o+2)*nin][:len(src)]
			w2 := w[(o+2)*nin : (o+3)*nin][:len(src)]
			w3 := w[(o+3)*nin : (o+4)*nin][:len(src)]
			s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
			for i, x := range src {
				s0 += w0[i] * x
				s1 += w1[i] * x
				s2 += w2[i] * x
				s3 += w3[i] * x
			}
			out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
		}
		for ; o < nout; o++ {
			out[o] = dotAcc(b[o], w[o*nin:(o+1)*nin], src)
		}
		if relu {
			for o, s := range out {
				if s < 0 {
					out[o] = 0 // ReLU on hidden layers
				}
			}
		}
	}
	return acts[len(acts)-1][0]
}

// dotAcc returns s plus the dot product of a and b, accumulating
// strictly left to right into a single accumulator: the 4-way unroll
// performs the exact addition sequence of the rolled loop, so results
// stay bit-identical to the historical code while the loop drops most
// of its bounds checks and branch overhead. forward sums the neurons
// its four-wide blocks leave over, and the output layer's one, with it.
func dotAcc(s float64, a, b []float64) float64 {
	a = a[:len(b)] // hoist the bounds check out of the loop
	i := 0
	for ; i+3 < len(b); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(b); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Predict returns the network output for one input vector.
func (n *Net) Predict(x []float64) float64 {
	if len(x) != n.Sizes[0] {
		panic(fmt.Sprintf("mlp: input dim %d, want %d", len(x), n.Sizes[0]))
	}
	acts, _ := n.scratch.Get().(*[][]float64)
	if acts == nil {
		a := n.newActs()
		acts = &a
	}
	y := n.forward(x, *acts)
	n.scratch.Put(acts)
	return y
}

func (n *Net) newActs() [][]float64 {
	acts := make([][]float64, len(n.Sizes))
	for i, s := range n.Sizes {
		acts[i] = make([]float64, s)
	}
	return acts
}

// grads mirrors the weight/bias shapes.
type grads struct {
	w [][]float64
	b [][]float64
}

func (n *Net) newGrads() *grads {
	g := &grads{}
	for l := range n.Weights {
		g.w = append(g.w, make([]float64, len(n.Weights[l])))
		g.b = append(g.b, make([]float64, len(n.Biases[l])))
	}
	return g
}

func (g *grads) zero() {
	for l := range g.w {
		clear(g.w[l])
		clear(g.b[l])
	}
}

// backward accumulates gradients of 0.5*(out-y)^2 into g, given acts
// populated by forward. Returns the squared error.
func (n *Net) backward(y float64, acts [][]float64, g *grads, deltas [][]float64, live []int) float64 {
	L := len(n.Weights)
	out := acts[L][0]
	diff := out - y

	// Output layer delta.
	deltas[L][0] = diff
	for l := L - 1; l >= 1; l-- {
		nout := n.Sizes[l+1]
		nin := n.Sizes[l]
		w := n.Weights[l]
		d := deltas[l]
		dn := deltas[l+1]
		a := acts[l][:nin]
		// An input the ReLU cut gets delta 0 and no sum. The live ones
		// go four at a time: one pass over the rows of the (nout x nin)
		// weight matrix feeds four column sums. Each sum adds its terms
		// in row order in one accumulator, as the one-input loop below
		// does for the remainder, so every delta is bit-identical to
		// summing its column alone.
		live = live[:0]
		for i, ai := range a {
			if ai > 0 {
				live = append(live, i)
			} else {
				d[i] = 0
			}
		}
		k := 0
		for ; k+3 < len(live); k += 4 {
			i0, i1, i2, i3 := live[k], live[k+1], live[k+2], live[k+3]
			var s0, s1, s2, s3 float64
			for o, dno := range dn[:nout] {
				r := w[o*nin : (o+1)*nin]
				s0 += r[i0] * dno
				s1 += r[i1] * dno
				s2 += r[i2] * dno
				s3 += r[i3] * dno
			}
			d[i0], d[i1], d[i2], d[i3] = s0, s1, s2, s3
		}
		for _, i := range live[k:] {
			s := 0.0
			for o, dno := range dn[:nout] {
				s += w[o*nin+i] * dno
			}
			d[i] = s
		}
	}
	for l := 0; l < L; l++ {
		nin := n.Sizes[l]
		nout := n.Sizes[l+1]
		src := acts[l]
		dn := deltas[l+1]
		gw := g.w[l]
		gb := g.b[l]
		for o := 0; o < nout; o++ {
			d := dn[o]
			if d == 0 {
				continue
			}
			axpy(d, src, gw[o*nin:(o+1)*nin])
			gb[o] += d
		}
	}
	return diff * diff
}

// axpy accumulates y[i] += alpha*x[i]. Each element updates
// independently — no cross-element accumulation — so the unroll cannot
// reassociate anything; it only removes bounds checks and loop
// overhead from the gradient accumulation, the second-hottest
// calibration loop.
func axpy(alpha float64, x, y []float64) {
	x = x[:len(y)] // hoist the bounds check out of the loop
	i := 0
	for ; i+3 < len(y); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(y); i++ {
		y[i] += alpha * x[i]
	}
}

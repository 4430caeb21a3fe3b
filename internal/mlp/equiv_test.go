package mlp

import (
	"fmt"
	"math"
	"testing"

	"dlrmperf/internal/xrand"
)

// refForward is forward as it was before the kernels were register
// blocked: one output neuron at a time, each a dotAcc from its bias.
// The blocked kernels must reproduce it bit for bit.
func refForward(n *Net, x []float64, acts [][]float64) float64 {
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
		for o := 0; o < nout; o++ {
			s := dotAcc(b[o], w[o*nin:(o+1)*nin], src)
			if relu && s < 0 {
				s = 0
			}
			out[o] = s
		}
	}
	return acts[len(acts)-1][0]
}

// refBackward is backward as it was before the kernels were register
// blocked: each hidden delta sums one column of the weight matrix,
// skipping inputs the ReLU cut.
func refBackward(n *Net, y float64, acts [][]float64, g *grads, deltas [][]float64) float64 {
	L := len(n.Weights)
	diff := acts[L][0] - y
	deltas[L][0] = diff
	for l := L - 1; l >= 1; l-- {
		nout := n.Sizes[l+1]
		nin := n.Sizes[l]
		w := n.Weights[l]
		d := deltas[l]
		dn := deltas[l+1]
		a := acts[l]
		for i := 0; i < nin; i++ {
			if a[i] <= 0 {
				d[i] = 0
				continue
			}
			s := 0.0
			j := i
			o := 0
			for ; o+3 < nout; o += 4 {
				s += w[j] * dn[o]
				s += w[j+nin] * dn[o+1]
				s += w[j+2*nin] * dn[o+2]
				s += w[j+3*nin] * dn[o+3]
				j += 4 * nin
			}
			for ; o < nout; o++ {
				s += w[j] * dn[o]
				j += nin
			}
			d[i] = s
		}
	}
	for l := 0; l < L; l++ {
		nin := n.Sizes[l]
		nout := n.Sizes[l+1]
		for o := 0; o < nout; o++ {
			d := deltas[l+1][o]
			if d == 0 {
				continue
			}
			axpy(d, acts[l], g.w[l][o*nin:(o+1)*nin])
			g.b[l][o] += d
		}
	}
	return diff * diff
}

// refTrain is Train on the reference kernels.
func refTrain(X [][]float64, Y []float64, cfg Config, seed uint64) *Net {
	rng := xrand.New(seed)
	sizes := []int{len(X[0])}
	for i := 0; i < cfg.HiddenLayers; i++ {
		sizes = append(sizes, cfg.Width)
	}
	n := NewNet(append(sizes, 1), rng)
	n.setStandardization(X)
	lr := cfg.LR
	if cfg.Optimizer == SGD {
		lr *= 10
	}
	g, acts, deltas := n.newGrads(), n.newActs(), n.newActs()
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
			end := min(start+cfg.BatchSize, len(idx))
			g.zero()
			for _, i := range idx[start:end] {
				refForward(n, X[i], acts)
				refBackward(n, Y[i], acts, g, deltas)
			}
			scale := 1 / float64(end-start)
			step++
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

// sameBits reports the first index at which a and b differ in any bit,
// or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestBlockedKernelsMatchReference holds the register-blocked forward
// and backward to the one-neuron reference, bit for bit, at every
// hidden width from 1 to 19 and input width from 1 to 9, so that every
// remainder of the four-wide blocks runs: each layer's activations,
// the output, the squared error, every delta and every accumulated
// gradient after a batch of samples.
func TestBlockedKernelsMatchReference(t *testing.T) {
	for in := 1; in <= 9; in++ {
		for width := 1; width <= 19; width++ {
			X, Y := synth(24, in, uint64(in*100+width))
			n := NewNet([]int{in, width, width, 1}, xrand.New(uint64(width)))
			n.setStandardization(X)
			for l := range n.Biases { // non-zero biases, some negative
				for o := range n.Biases[l] {
					n.Biases[l][o] = 0.1 * float64(o%5-2)
				}
			}
			acts, refActs := n.newActs(), n.newActs()
			deltas, refDeltas := n.newActs(), n.newActs()
			g, refG := n.newGrads(), n.newGrads()
			name := fmt.Sprintf("in=%d width=%d", in, width)
			for s := range X {
				out, refOut := n.forward(X[s], acts), refForward(n, X[s], refActs)
				if math.Float64bits(out) != math.Float64bits(refOut) {
					t.Fatalf("%s sample %d: output %v, reference %v", name, s, out, refOut)
				}
				for l := range acts {
					if i := sameBits(acts[l], refActs[l]); i >= 0 {
						t.Fatalf("%s sample %d: layer %d activation %d differs", name, s, l, i)
					}
				}
				se, refSE := n.backward(Y[s], acts, g, deltas, make([]int, 0, width)), refBackward(n, Y[s], refActs, refG, refDeltas)
				if math.Float64bits(se) != math.Float64bits(refSE) {
					t.Fatalf("%s sample %d: squared error %v, reference %v", name, s, se, refSE)
				}
				for l := range deltas {
					if i := sameBits(deltas[l], refDeltas[l]); i >= 0 {
						t.Fatalf("%s sample %d: layer %d delta %d is %v, reference %v", name, s, l, i, deltas[l][i], refDeltas[l][i])
					}
				}
			}
			for l := range g.w {
				if i := sameBits(g.w[l], refG.w[l]); i >= 0 {
					t.Fatalf("%s: layer %d weight gradient %d differs", name, l, i)
				}
				if i := sameBits(g.b[l], refG.b[l]); i >= 0 {
					t.Fatalf("%s: layer %d bias gradient %d differs", name, l, i)
				}
			}
		}
	}
}

// TestBlockedTrainMatchesReference trains whole networks on the blocked
// kernels and on the reference ones, with Adam and with SGD, and
// requires every weight and bias to come out bit-identical.
func TestBlockedTrainMatchesReference(t *testing.T) {
	for _, opt := range []string{Adam, SGD} {
		for _, tc := range []struct{ in, layers, width int }{
			{2, 1, 16}, {4, 1, 16}, {8, 1, 16}, {3, 2, 7}, {5, 3, 13}, {9, 2, 19}, {1, 1, 1},
		} {
			X, Y := synth(150, tc.in, uint64(tc.in+tc.width))
			cfg := Config{HiddenLayers: tc.layers, Width: tc.width, Optimizer: opt, LR: 3e-3, Epochs: 4, BatchSize: 32}
			got, want := Train(X, Y, cfg, 17), refTrain(X, Y, cfg, 17)
			for l := range want.Weights {
				if i := sameBits(got.Weights[l], want.Weights[l]); i >= 0 {
					t.Fatalf("%s %+v: layer %d weight %d is %v, reference %v", opt, tc, l, i, got.Weights[l][i], want.Weights[l][i])
				}
				if i := sameBits(got.Biases[l], want.Biases[l]); i >= 0 {
					t.Fatalf("%s %+v: layer %d bias %d differs", opt, tc, l, i)
				}
			}
		}
	}
}

package graph

import (
	"testing"
	"testing/quick"

	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
	"dlrmperf/internal/xrand"
)

// TestFusionPreservesValidityProperty fuses random subsets of
// embedding-bag fan-outs and checks the graph stays structurally valid
// with the downstream consumer intact.
func TestFusionPreservesValidityProperty(t *testing.T) {
	rng := xrand.New(99)
	f := func(nRaw, batchRaw uint8) bool {
		n := int(nRaw%6) + 2 // 2..7 tables
		batch := int64(batchRaw%8+1) * 64
		g := New()
		idx := g.Input(tensor.NewTyped(tensor.Int64, batch, int64(n), 4))
		var outs []TensorID
		var ids []NodeID
		rows := make([]int64, n)
		for i := 0; i < n; i++ {
			rows[i] = int64(rng.Intn(100_000) + 100)
			o := g.Apply(ops.EmbeddingBag{Rows: rows[i], L: 4, D: 16}, idx)
			ids = append(ids, g.Producer(o[0]))
			outs = append(outs, o[0])
		}
		cat := g.Apply(ops.Concat{Dim: 1}, outs...)
		relu := g.Apply(ops.ReLU(), cat[0])

		before := kernelCount(g)
		ids = append(ids, g.Producer(cat[0]))
		fused, err := g.ReplaceNodes(ids, ops.EmbeddingLookup{Rows: rows, L: 4, D: 16})
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		// The fused graph launches fewer kernels than n bags + a concat.
		if kernelCount(g) >= before {
			return false
		}
		// Downstream relu depends on the fused node, and its shape holds.
		reluNode := g.Node(g.Producer(relu[0]))
		deps := g.Deps(reluNode)
		if len(deps) != 1 || deps[0] != fused.ID {
			return false
		}
		m := g.Meta(relu[0])
		return m.Dim(0) == batch && m.Dim(1) == int64(n) && m.Dim(2) == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResizePropagationProperty checks that resizing to an arbitrary
// batch updates every kernel's leading dimension consistently.
func TestResizePropagationProperty(t *testing.T) {
	f := func(b1Raw, b2Raw uint8) bool {
		b1 := int64(b1Raw%16+1) * 32
		b2 := int64(b2Raw%16+1) * 32
		g := New()
		x := g.Input(tensor.New(b1, 64))
		h := g.Apply(ops.Linear{Out: 32}, x)
		r := g.Apply(ops.ReLU(), h[0])
		g.Apply(ops.Linear{Out: 8}, r[0])
		v, err := g.WithBatch(b2)
		if err != nil {
			return false
		}
		for _, n := range v.Nodes {
			for _, out := range v.Outputs(&n) {
				m := v.Meta(out)
				if m.Rank() > 0 && m.Dim(0) != b2 {
					return false
				}
			}
		}
		return v.BatchSize() == b2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package models

import (
	"reflect"
	"testing"
	"testing/quick"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/xrand"
)

var allFamilies = []string{
	NameDLRMDefault, NameDLRMMLPerf, NameDLRMDDP,
	NameResNet50, NameInceptionV3, NameTransformer,
}

// batchFrom maps a raw draw onto the batch sizes that matter: the
// smallest the serving stream sends, odd sizes, the evaluation range,
// and sizes past 100k.
func batchFrom(raw uint32) int64 {
	switch raw % 4 {
	case 0:
		return 4
	case 1:
		return int64(raw>>2)%4096*2 + 1 // odd
	case 2:
		return int64(raw>>2)%4096 + 1
	}
	return 100_001 + int64(raw>>2)%2_000_000
}

// sameGraph fails unless got equals want node by node: op name, the
// kernels launched, and the metadata of every output tensor.
func sameGraph(t *testing.T, label string, got, want *graph.Graph) bool {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Errorf("%s: %d nodes, want %d", label, len(got.Nodes), len(want.Nodes))
		return false
	}
	if got.BatchSize() != want.BatchSize() {
		t.Errorf("%s: batch %d, want %d", label, got.BatchSize(), want.BatchSize())
		return false
	}
	for i := range got.Nodes {
		n, w := &got.Nodes[i], &want.Nodes[i]
		if got.Op(n).Name() != want.Op(w).Name() {
			t.Errorf("%s: node %d is %s, want %s", label, i, got.Op(n).Name(), want.Op(w).Name())
			return false
		}
		if gk, wk := got.NodeKernels(n), want.NodeKernels(w); !reflect.DeepEqual(gk, wk) {
			t.Errorf("%s: node %d (%s) launches %+v, want %+v", label, i, got.Op(n).Name(), gk, wk)
			return false
		}
		gOut, wOut := got.Outputs(n), want.Outputs(w)
		if len(gOut) != len(wOut) {
			t.Errorf("%s: node %d (%s) has %d outputs, want %d", label, i, got.Op(n).Name(), len(gOut), len(wOut))
			return false
		}
		for j := range gOut {
			if gm, wm := got.Meta(gOut[j]), want.Meta(wOut[j]); !reflect.DeepEqual(gm, wm) {
				t.Errorf("%s: node %d (%s) output %d is %v, want %v", label, i, got.Op(n).Name(), j, gm, wm)
				return false
			}
		}
	}
	return true
}

// TestBindEqualsBuild is the contract the engine's structure sharing
// stands on: for every family, a structure built at one batch size and
// bound to another is the graph a from-scratch build at that size gives.
func TestBindEqualsBuild(t *testing.T) {
	for _, name := range allFamilies {
		name := name
		f := func(rawBuilt, rawBound uint32) bool {
			built, b := batchFrom(rawBuilt), batchFrom(rawBound)
			structure, err := Build(name, built)
			if err != nil {
				t.Errorf("Build(%s, %d): %v", name, built, err)
				return false
			}
			bound, err := structure.WithBatch(b)
			if err != nil {
				t.Errorf("%s built at %d: WithBatch(%d): %v", name, built, b, err)
				return false
			}
			want, err := Build(name, b)
			if err != nil {
				t.Errorf("Build(%s, %d): %v", name, b, err)
				return false
			}
			if bound.Params != want.Params || bound.Name != want.Name {
				t.Errorf("%s: bound identity %s/%d, want %s/%d", name, bound.Name, bound.Params, want.Name, want.Params)
				return false
			}
			// Binding must leave the structure's own shapes alone.
			return sameGraph(t, name+" bound", bound.Graph, want.Graph) &&
				structure.Graph.BatchSize() == built
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBindEqualsBuildRandomTables repeats the contract over the DLRM
// graphs scenarios build: a family template with a random table
// population — the shards a sharding plan hands each device, down to a
// single table. A population of none is refused at build, the same way
// at every batch size.
func TestBindEqualsBuildRandomTables(t *testing.T) {
	rng := xrand.New(16)
	f := func(rawBuilt, rawBound uint32, nTables uint8, fused bool) bool {
		cfg, err := DLRMConfigFor(DLRMNames()[rng.Intn(3)], batchFrom(rawBuilt))
		if err != nil {
			t.Error(err)
			return false
		}
		cfg.EmbRows = make([]int64, nTables%12)
		for i := range cfg.EmbRows {
			cfg.EmbRows[i] = int64(rng.Intn(5_000_000) + 1)
		}
		cfg.Lookups = int64(rng.Intn(100) + 1)
		cfg.ZipfSkew = rng.Float64()
		cfg.FusedEmbedding = fused
		structure, err := BuildDLRM(cfg)
		if len(cfg.EmbRows) == 0 {
			if err == nil {
				t.Error("empty table population built")
			}
			return err != nil
		}
		if err != nil {
			t.Errorf("BuildDLRM(%+v): %v", cfg, err)
			return false
		}
		cfg.Batch = batchFrom(rawBound)
		bound, err := structure.WithBatch(cfg.Batch)
		if err != nil {
			t.Errorf("WithBatch(%d): %v", cfg.Batch, err)
			return false
		}
		want, err := BuildDLRM(cfg)
		if err != nil {
			t.Errorf("BuildDLRM(%+v): %v", cfg, err)
			return false
		}
		return sameGraph(t, cfg.Name, bound.Graph, want.Graph)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestResizeBatchEqualsBuild pins the batch-size what-if on the three
// families it used to get wrong: ops that baked the build batch into a
// shape (aten::expand in the CNNs, fourteen aten::view in the
// Transformer) kept launching build-batch kernels after a resize.
func TestResizeBatchEqualsBuild(t *testing.T) {
	for _, name := range []string{NameResNet50, NameInceptionV3, NameTransformer} {
		built, err := Build(name, 512)
		if err != nil {
			t.Fatal(err)
		}
		m, err := built.WithBatch(64)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, name+" resized", m.Graph, want.Graph)
	}
}

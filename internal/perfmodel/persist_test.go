package perfmodel

import (
	"encoding/json"
	"testing"

	"dlrmperf/internal/kernels"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/xrand"
)

func TestRegistryRoundTrip(t *testing.T) {
	cal := v100Calibration(t)
	data, err := SaveRegistry(cal.Registry)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Device != cal.Registry.Device {
		t.Errorf("device = %s", got.Device)
	}
	if len(got.Kinds()) != len(cal.Registry.Kinds()) {
		t.Fatalf("kinds: %d vs %d", len(got.Kinds()), len(cal.Registry.Kinds()))
	}
	// Every model family must predict bit-identically after the round
	// trip: heuristic (embedding), roofline (concat, memcpy), ML (GEMM,
	// transpose, tril).
	probes := []kernels.Kernel{
		{Kind: kernels.KindEmbeddingFwd, B: 1024, E: 500_000, T: 8, L: 16, D: 64},
		{Kind: kernels.KindEmbeddingBwd, B: 2048, E: 2000, T: 4, L: 4, D: 128},
		{Kind: kernels.KindConcat, NBytes: 1 << 20, NInputs: 9},
		{Kind: kernels.KindMemcpyH2D, NBytes: 4 << 20},
		{Kind: kernels.KindGEMM, B: 1, M: 2048, N: 1024, K: 512},
		{Kind: kernels.KindGEMM, B: 64, M: 9, N: 9, K: 64},
		{Kind: kernels.KindTranspose, B: 2048, M: 9, N: 64},
		{Kind: kernels.KindTrilFwd, B: 2048, F: 27},
		{Kind: kernels.KindTrilBwd, B: 2048, F: 27},
		{Kind: kernels.KindElementwise, Name: "relu", NElems: 1 << 20, ReadsPerElem: 4, WritesPerElem: 4},
	}
	for _, k := range probes {
		want, err := cal.Registry.Predict(&k)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Predict(&k)
		if err != nil {
			t.Fatal(err)
		}
		if want != have {
			t.Errorf("%s: prediction changed after round trip: %v vs %v", k, want, have)
		}
	}
}

func TestLoadRegistryRejectsGarbage(t *testing.T) {
	if _, err := LoadRegistry([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := LoadRegistry([]byte(`{"device":"V100","models":{"GEMM":{"type":"nope","data":{}}}}`)); err == nil {
		t.Error("unknown model type accepted")
	}
	if _, err := LoadRegistry([]byte(`{"device":"V100","models":{"warp9":{"type":"roofline","data":{}}}}`)); err == nil {
		t.Error("unknown kernel kind accepted")
	}
}

// TestLoadRegistryRejectsMisfitModels: a model that would panic on its
// first prediction is refused at load — an embedding heuristic filed
// under another kind, and a network whose input is not the kind's
// feature width or whose output is not one value. The same models filed
// where they fit load and predict.
func TestLoadRegistryRejectsMisfitModels(t *testing.T) {
	el := `{"type":"el","data":{"name":"EL","gpu":"V100","dram_bw":9e11,"l2_bw":2e12,"enhanced":true}}`
	net := func(sizes ...int) string {
		n, err := json.Marshal(mlp.NewNet(sizes, xrand.New(1)))
		if err != nil {
			t.Fatal(err)
		}
		return `{"type":"mlp","data":{"name":"M","config":{},"base_peak":1e13,"base_bw":9e11,"nets":[` + string(n) + `]}}`
	}
	registry := func(kind, model string) []byte {
		return []byte(`{"device":"V100","models":{"` + kind + `":` + model + `}}`)
	}
	for _, tc := range []struct{ name, kind, model string }{
		{"embedding heuristic", "GEMM", el},
		{"embedding heuristic", "memcpy", el},
		{"5-in network", "GEMM", net(5, 8, 1)},
		{"4-in network", "conv", net(4, 8, 1)},
		{"2-out network", "GEMM", net(4, 8, 2)},
		{"0-out network", "GEMM", net(4, 0)},
	} {
		if _, err := LoadRegistry(registry(tc.kind, tc.model)); err == nil {
			t.Errorf("%s filed under %s accepted", tc.name, tc.kind)
		}
	}
	for _, tc := range []struct {
		kind  string
		model string
		probe kernels.Kernel
	}{
		{"EL-F", el, kernels.Kernel{Kind: kernels.KindEmbeddingFwd, B: 1024, E: 500_000, T: 8, L: 16, D: 64}},
		{"EL-B", el, kernels.Kernel{Kind: kernels.KindEmbeddingBwd, B: 1024, E: 500_000, T: 8, L: 16, D: 64}},
		{"GEMM", net(4, 8, 1), kernels.Kernel{Kind: kernels.KindGEMM, B: 1, M: 2048, N: 1024, K: 512}},
		{"conv", net(8, 1), kernels.Kernel{Kind: kernels.KindConv, N: 32, C: 64, H: 56, W: 56, K: 64, R: 3, S: 3, Stride: 1}},
	} {
		reg, err := LoadRegistry(registry(tc.kind, tc.model))
		if err != nil {
			t.Fatalf("%s model rejected: %v", tc.kind, err)
		}
		if _, err := reg.Predict(&tc.probe); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
	}
}

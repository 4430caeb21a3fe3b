package perfmodel

import (
	"encoding/json"
	"math"
	"strings"
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
	if _, err := LoadRegistry([]byte(`{"device":"V100","models":{"GEMM":{"form":"nope"}}}`)); err == nil {
		t.Error("unknown model form accepted")
	}
	if _, err := LoadRegistry([]byte(`{"device":"V100","models":{"warp9":{"form":"roofline","bw":1}}}`)); err == nil {
		t.Error("unknown kernel kind accepted")
	}
	if _, err := LoadRegistry([]byte(`{"device":"V100","models":{"concat":null}}`)); err == nil {
		t.Error("null model accepted")
	}
}

// TestLoadRegistryRejectsMisfitModels: a model that would panic on its
// first prediction, or price every kernel at +Inf, is refused at load —
// an embedding heuristic filed under another kind; a network whose
// input is not the kind's feature width or whose output is not one
// value; a bandwidth, SM count or L2 size that is not positive; a
// negative latency or peak. The same models filed where they fit load
// and predict a finite, positive time.
func TestLoadRegistryRejectsMisfitModels(t *testing.T) {
	el := func(fields string) string {
		return `{"form":"el","name":"EL","dram_bw":9e5,"l2_bw":2e6,"enhanced":true,"num_sms":80,"l2_size":6291456` + fields + `}`
	}
	net := func(sizes ...int) string {
		n, err := json.Marshal(mlp.NewNet(sizes, xrand.New(1)))
		if err != nil {
			t.Fatal(err)
		}
		return `{"form":"mlp","name":"M","base_peak":1e7,"base_bw":9e5,"nets":[` + string(n) + `]}`
	}
	registry := func(kind, model string) []byte {
		return []byte(`{"device":"V100","models":{"` + kind + `":` + model + `}}`)
	}
	for _, tc := range []struct{ name, kind, model string }{
		{"embedding heuristic", "GEMM", el("")},
		{"embedding heuristic", "memcpy", el("")},
		{"5-in network", "GEMM", net(5, 8, 1)},
		{"4-in network", "conv", net(4, 8, 1)},
		{"2-out network", "GEMM", net(4, 8, 2)},
		{"0-out network", "GEMM", net(4, 0)},
		{"networkless mlp", "GEMM", `{"form":"mlp","name":"M","base_bw":9e5,"nets":[]}`},
		{"null network", "GEMM", `{"form":"mlp","name":"M","base_bw":9e5,"nets":[null]}`},
		{"roofline with no fields", "concat", `{"form":"roofline","name":"concat"}`},
		{"roofline with a negative bandwidth", "concat", `{"form":"roofline","bw":-1}`},
		{"roofline with a negative latency", "memcpy", `{"form":"roofline","bw":1e4,"lat":-1}`},
		{"roofline with a negative peak", "elementwise", `{"form":"roofline","bw":1e4,"peak":-1}`},
		{"embedding heuristic with no DRAM bandwidth", "EL-F", el(`,"dram_bw":0`)},
		{"embedding heuristic with no SM count", "EL-F", el(`,"num_sms":0`)},
		{"embedding heuristic with a negative L2 size", "EL-B", el(`,"l2_size":-1`)},
		{"enhanced embedding heuristic with no L2 bandwidth", "EL-B", el(`,"l2_bw":0`)},
		{"mlp with no baseline bandwidth", "GEMM", strings.Replace(net(4, 8, 1), `"base_bw":9e5`, `"base_bw":0`, 1)},
		{"mlp with a negative baseline peak", "GEMM", strings.Replace(net(4, 8, 1), `"base_peak":1e7`, `"base_peak":-1`, 1)},
	} {
		if _, err := LoadRegistry(registry(tc.kind, tc.model)); err == nil {
			t.Errorf("%s filed under %s accepted", tc.name, tc.kind)
		}
	}
	embedding := kernels.Kernel{Kind: kernels.KindEmbeddingFwd, B: 1024, E: 500_000, T: 8, L: 16, D: 64}
	for _, tc := range []struct {
		kind  string
		model string
		probe kernels.Kernel
	}{
		{"EL-F", el(""), embedding},
		{"EL-B", el(""), kernels.Kernel{Kind: kernels.KindEmbeddingBwd, B: 1024, E: 500_000, T: 8, L: 16, D: 64}},
		{"EL-F", el(`,"l2_bw":0,"enhanced":false`), embedding},
		{"GEMM", net(4, 8, 1), kernels.Kernel{Kind: kernels.KindGEMM, B: 1, M: 2048, N: 1024, K: 512}},
		{"conv", net(8, 1), kernels.Kernel{Kind: kernels.KindConv, N: 32, C: 64, H: 56, W: 56, K: 64, R: 3, S: 3, Stride: 1}},
		{"concat", `{"form":"roofline","bw":1e4}`, kernels.Kernel{Kind: kernels.KindConcat, NBytes: 1 << 20, NInputs: 9}},
	} {
		reg, err := LoadRegistry(registry(tc.kind, tc.model))
		if err != nil {
			t.Fatalf("%s model rejected: %v", tc.kind, err)
		}
		us, err := reg.Predict(&tc.probe)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if !(us > 0) || math.IsInf(us, 1) {
			t.Fatalf("%s prices %s at %v µs", tc.kind, tc.probe, us)
		}
	}
}

// constModel prices every kernel at a constant time.
type constModel float64

func (c constModel) Predict(*kernels.Kernel) float64 { return float64(c) }

// TestSaveRegistryRefusesForeignModels: only *Model values serialize; a
// registry holding any other KernelModel is refused, not half-written.
func TestSaveRegistryRefusesForeignModels(t *testing.T) {
	reg := NewRegistry("V100")
	reg.Register(kernels.KindConcat, &Model{Form: FormRoofline, Name: "concat", BW: 1e4})
	if _, err := SaveRegistry(reg); err != nil {
		t.Fatal(err)
	}
	reg.Register(kernels.KindMemcpyH2D, constModel(1))
	if data, err := SaveRegistry(reg); err == nil {
		t.Errorf("registry with a foreign model serialized: %s", data)
	}
}

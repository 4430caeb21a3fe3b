package models

import (
	"testing"

	"dlrmperf/internal/kernels"
)

func TestBuildAllModels(t *testing.T) {
	for _, name := range []string{
		NameDLRMDefault, NameDLRMMLPerf, NameDLRMDDP,
		NameResNet50, NameInceptionV3, NameTransformer,
	} {
		m, err := Build(name, 32)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if err := m.Graph.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", name, err)
		}
		if m.Params <= 0 {
			t.Errorf("%s: params = %d", name, m.Params)
		}
		if len(m.Graph.Nodes) < 20 {
			t.Errorf("%s: suspiciously few nodes (%d)", name, len(m.Graph.Nodes))
		}
	}
}

// TestBuildRejectsNonPositiveBatch: every family refuses a batch size
// below 1 with an error, before any shape is computed.
func TestBuildRejectsNonPositiveBatch(t *testing.T) {
	for _, name := range allFamilies {
		for _, b := range []int64{0, -64} {
			if m, err := Build(name, b); err == nil {
				t.Errorf("Build(%s, %d) = %d nodes, want an error", name, b, len(m.Graph.Nodes))
			}
		}
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("alexnet", 32); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestDLRMConfigValidation(t *testing.T) {
	bad := DLRMDefaultConfig(128)
	bad.EmbDim = 32 // breaks bottom-MLP == D constraint
	if _, err := BuildDLRM(bad); err == nil {
		t.Error("mismatched bottom MLP / embedding dim accepted")
	}
	bad2 := DLRMDefaultConfig(0)
	if _, err := BuildDLRM(bad2); err == nil {
		t.Error("zero batch accepted")
	}
	bad3 := DLRMDefaultConfig(128)
	bad3.TopMLP = []int64{1024, 2}
	if _, err := BuildDLRM(bad3); err == nil {
		t.Error("top MLP not ending in 1 accepted")
	}
	bad4 := DLRMDefaultConfig(128)
	bad4.Loss = "hinge"
	if _, err := BuildDLRM(bad4); err == nil {
		t.Error("unknown loss accepted")
	}
}

func TestDLRMKernelCensus(t *testing.T) {
	m, err := Build(NameDLRMDefault, 2048)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[kernels.Kind]int{}
	for _, n := range m.Graph.Nodes {
		for _, k := range m.Graph.NodeKernels(&n) {
			counts[k.Kind]++
		}
	}
	// The six dominating kernel families of Section III-A must all appear.
	for _, kind := range []kernels.Kind{
		kernels.KindGEMM, kernels.KindEmbeddingFwd, kernels.KindEmbeddingBwd,
		kernels.KindConcat, kernels.KindMemcpyH2D, kernels.KindTranspose,
		kernels.KindTrilFwd, kernels.KindTrilBwd, kernels.KindElementwise,
	} {
		if counts[kind] == 0 {
			t.Errorf("DLRM graph missing kernel kind %s", kind)
		}
	}
	// Forward 6 linears + backward 2 GEMMs each + 2 bmm fwd + 4 bmm bwd.
	if counts[kernels.KindGEMM] < 15 {
		t.Errorf("GEMM census = %d, expected >= 15", counts[kernels.KindGEMM])
	}
}

func TestDLRMResize(t *testing.T) {
	built, err := Build(NameDLRMDDP, 512)
	if err != nil {
		t.Fatal(err)
	}
	m, err := built.WithBatch(4096)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range m.Graph.Nodes {
		if m.Graph.Op(&n).Name() != "LookupFunction" {
			continue
		}
		k := m.Graph.NodeKernels(&n)[0]
		if k.Kind != kernels.KindEmbeddingFwd || k.B != 4096 {
			t.Errorf("embedding batch after resize = %d", k.B)
		}
		found = true
	}
	if !found {
		t.Fatal("no LookupFunction node found")
	}
	if _, err := m.WithBatch(-1); err == nil {
		t.Error("negative batch accepted")
	}
}

func TestDLRMUnfusedVariant(t *testing.T) {
	cfg := DLRMDefaultConfig(256)
	cfg.FusedEmbedding = false
	m, err := BuildDLRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bags := 0
	for _, n := range m.Graph.Nodes {
		if m.Graph.Op(&n).Name() == "aten::embedding_bag" {
			bags++
		}
	}
	if bags != 8 {
		t.Fatalf("unfused DLRM has %d embedding_bag ops, want 8", bags)
	}
	ids := EmbeddingBagNodes(m)
	// 8 bags + their concat.
	if len(ids) != 9 {
		t.Fatalf("EmbeddingBagNodes = %d ids, want 9", len(ids))
	}
	fused, err := BuildDLRM(DLRMDefaultConfig(256))
	if err != nil {
		t.Fatal(err)
	}
	if EmbeddingBagNodes(fused) != nil {
		t.Error("fused model reported embedding_bag nodes")
	}
	if len(m.Graph.Nodes) <= len(fused.Graph.Nodes) {
		t.Error("unfused graph should have more ops than fused")
	}
}

func TestMLPerfUsesBCEAndVaryingTables(t *testing.T) {
	cfg := DLRMMLPerfConfig(1024)
	if cfg.Loss != "bce" {
		t.Error("MLPerf should use BCE loss")
	}
	if len(cfg.EmbRows) != 26 {
		t.Errorf("MLPerf tables = %d, want 26", len(cfg.EmbRows))
	}
	var maxRows int64
	for _, r := range cfg.EmbRows {
		if r > maxRows {
			maxRows = r
		}
	}
	if maxRows != 14_000_000 {
		t.Errorf("max table = %d, want 14M", maxRows)
	}
	m, err := BuildDLRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hasBCE := false
	for _, n := range m.Graph.Nodes {
		if m.Graph.Op(&n).Name() == "aten::binary_cross_entropy" {
			hasBCE = true
		}
	}
	if !hasBCE {
		t.Error("MLPerf graph missing BCE loss op")
	}
}

func TestResNet50Census(t *testing.T) {
	m := BuildResNet50(32)
	if err := m.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	convs, bns := 0, 0
	for _, n := range m.Graph.Nodes {
		switch m.Graph.Op(&n).Name() {
		case "aten::conv2d":
			convs++
		case "aten::batch_norm":
			bns++
		}
	}
	// ResNet-50 has 53 convolutions (49 in blocks + 4 downsample + stem).
	if convs != 53 {
		t.Errorf("resnet50 convs = %d, want 53", convs)
	}
	if bns != convs {
		t.Errorf("batch_norm count %d != conv count %d", bns, convs)
	}
	// ~25.5M parameters.
	if m.Params < 20_000_000 || m.Params > 30_000_000 {
		t.Errorf("resnet50 params = %d, want ~25.5M", m.Params)
	}
}

func TestResNetDominatedByConvFLOPs(t *testing.T) {
	m := BuildResNet50(32)
	var convFLOPs, totalFLOPs float64
	for _, n := range m.Graph.Nodes {
		for _, k := range m.Graph.NodeKernels(&n) {
			totalFLOPs += k.FLOPs()
			if k.Kind == kernels.KindConv {
				convFLOPs += k.FLOPs()
			}
		}
	}
	if convFLOPs/totalFLOPs < 0.9 {
		t.Errorf("conv FLOP share = %.2f, want > 0.9", convFLOPs/totalFLOPs)
	}
	// Train step ~3x forward ~4 GFLOP/img * 32.
	perImg := totalFLOPs / 32 / 1e9
	if perImg < 6 || perImg > 30 {
		t.Errorf("resnet50 train GFLOP/img = %.1f, outside [6,30]", perImg)
	}
}

func TestInceptionHasAsymmetricConvs(t *testing.T) {
	m := BuildInceptionV3(16)
	if err := m.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	asym := 0
	for _, n := range m.Graph.Nodes {
		for _, k := range m.Graph.NodeKernels(&n) {
			if k.Kind == kernels.KindConv && k.R != k.S {
				asym++
			}
		}
	}
	if asym < 10 {
		t.Errorf("inception asymmetric conv kernels = %d, want >= 10", asym)
	}
}

func TestTransformerDominatedByGEMM(t *testing.T) {
	m := BuildTransformer(64)
	if err := m.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	var gemm, total float64
	for _, n := range m.Graph.Nodes {
		for _, k := range m.Graph.NodeKernels(&n) {
			total += k.FLOPs()
			if k.Kind == kernels.KindGEMM {
				gemm += k.FLOPs()
			}
		}
	}
	if gemm/total < 0.85 {
		t.Errorf("transformer GEMM FLOP share = %.2f, want > 0.85", gemm/total)
	}
}

func TestCloneIndependence(t *testing.T) {
	cfg := DLRMDefaultConfig(512)
	cfg.FusedEmbedding = false
	m, err := BuildDLRM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := len(m.Graph.Nodes)
	c := m.Clone()
	if err := FuseEmbeddingBags(c); err != nil {
		t.Fatal(err)
	}
	if len(m.Graph.Nodes) != nodes || EmbeddingBagNodes(m) == nil {
		t.Error("fusing the clone affected the original")
	}
	if len(c.Graph.Nodes) >= nodes {
		t.Error("fusion should reduce op count")
	}
	if err := FuseEmbeddingBags(c); err == nil {
		t.Error("double fusion should error")
	}
}

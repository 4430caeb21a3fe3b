package models

import (
	"fmt"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/ops"
	"dlrmperf/internal/tensor"
)

// DLRMConfig describes a DLRM instance in the vocabulary of Table III.
type DLRMConfig struct {
	Name string
	// Batch is the training batch size.
	Batch int64
	// BotMLP lists the bottom MLP widths; BotMLP[0] is the dense feature
	// width. The last width must equal EmbDim (DLRM requirement).
	BotMLP []int64
	// TopMLP lists the top MLP hidden widths; the final entry must be 1.
	TopMLP []int64
	// EmbRows is the number of rows of each embedding table.
	EmbRows []int64
	// EmbDim is the embedding vector length D.
	EmbDim int64
	// Lookups is the pooling factor L per table.
	Lookups int64
	// Loss selects "mse" (default DLRM benchmark) or "bce" (MLPerf).
	Loss string
	// ZipfSkew shapes synthetic index locality (0 = uniform).
	ZipfSkew float64
	// FusedEmbedding selects the batched lookup op (the paper's
	// integrated Tulloch kernel). When false, each table is a separate
	// aten::embedding_bag op whose outputs are concatenated — the
	// unfused left side of Fig. 11.
	FusedEmbedding bool
}

// DLRMDefaultConfig is the "DLRM_default" column of Table III: bottom MLP
// 512-512-64, 8 tables of 1M rows, D=64, top MLP 1024-1024-1024-1.
func DLRMDefaultConfig(batch int64) DLRMConfig {
	rows := make([]int64, 8)
	for i := range rows {
		rows[i] = 1_000_000
	}
	return DLRMConfig{
		Name:           NameDLRMDefault,
		Batch:          batch,
		BotMLP:         []int64{512, 512, 64},
		TopMLP:         []int64{1024, 1024, 1024, 1},
		EmbRows:        rows,
		EmbDim:         64,
		Lookups:        64,
		Loss:           "mse",
		FusedEmbedding: true,
	}
}

// DLRMMLPerfConfig is the "DLRM_MLPerf" column: bottom 13-512-256-128, 26
// Criteo tables up to 14M rows, D=128, top 1024-1024-512-256-1, BCE loss,
// single lookup per table (one-hot categorical features).
func DLRMMLPerfConfig(batch int64) DLRMConfig {
	// Criteo Kaggle cardinalities (order of magnitude), capped at 14M.
	rows := []int64{
		14_000_000, 39_060, 17_295, 7_424, 20_265, 3, 7_122, 1_543, 63,
		11_700_000, 3_067_956, 405_282, 10, 2_209, 11_938, 155, 4, 976,
		14, 12_900_000, 7_800_000, 11_400_000, 590_152, 12_973, 108, 36,
	}
	return DLRMConfig{
		Name:           NameDLRMMLPerf,
		Batch:          batch,
		BotMLP:         []int64{13, 512, 256, 128},
		TopMLP:         []int64{1024, 1024, 512, 256, 1},
		EmbRows:        rows,
		EmbDim:         128,
		Lookups:        1,
		Loss:           "bce",
		FusedEmbedding: true,
	}
}

// DLRMDDPConfig is the "DLRM_DDP" column: bottom 128-128-128-128, 8
// tables of 80k rows, D=128, top 512-512-512-256-1.
func DLRMDDPConfig(batch int64) DLRMConfig {
	rows := make([]int64, 8)
	for i := range rows {
		rows[i] = 80_000
	}
	return DLRMConfig{
		Name:           NameDLRMDDP,
		Batch:          batch,
		BotMLP:         []int64{128, 128, 128, 128},
		TopMLP:         []int64{512, 512, 512, 256, 1},
		EmbRows:        rows,
		EmbDim:         128,
		Lookups:        80,
		Loss:           "mse",
		FusedEmbedding: true,
	}
}

// Validate checks structural constraints of the configuration.
func (c DLRMConfig) Validate() error {
	if c.Batch <= 0 {
		return fmt.Errorf("dlrm %s: batch %d must be positive", c.Name, c.Batch)
	}
	if len(c.BotMLP) < 2 || len(c.TopMLP) < 2 {
		return fmt.Errorf("dlrm %s: MLPs need at least one layer", c.Name)
	}
	if c.BotMLP[len(c.BotMLP)-1] != c.EmbDim {
		return fmt.Errorf("dlrm %s: bottom MLP output %d must equal embedding dim %d",
			c.Name, c.BotMLP[len(c.BotMLP)-1], c.EmbDim)
	}
	if c.TopMLP[len(c.TopMLP)-1] != 1 {
		return fmt.Errorf("dlrm %s: top MLP must end in width 1", c.Name)
	}
	if len(c.EmbRows) == 0 || c.EmbDim <= 0 || c.Lookups <= 0 {
		return fmt.Errorf("dlrm %s: invalid embedding config", c.Name)
	}
	switch c.Loss {
	case "mse", "bce":
	default:
		return fmt.Errorf("dlrm %s: unknown loss %q", c.Name, c.Loss)
	}
	return nil
}

// NumTables returns the embedding table count T.
func (c DLRMConfig) NumTables() int64 { return int64(len(c.EmbRows)) }

// InteractionFeatures returns F = T + 1, the row count of the pairwise
// interaction matrix.
func (c DLRMConfig) InteractionFeatures() int64 { return c.NumTables() + 1 }

// TopInputDim returns the width of the concatenated top-MLP input:
// D + F*(F-1)/2.
func (c DLRMConfig) TopInputDim() int64 {
	f := c.InteractionFeatures()
	return c.EmbDim + f*(f-1)/2
}

// BuildDLRM constructs the execution graph of one DLRM training
// iteration: host-to-device input copies, bottom MLP, embedding lookup,
// pairwise feature interaction (bmm + tril extraction), top MLP, loss,
// the full backward pass, and the optimizer step.
func BuildDLRM(cfg DLRMConfig) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := graph.New()
	b, t, l, d := cfg.Batch, cfg.NumTables(), cfg.Lookups, cfg.EmbDim

	// -- Inputs and host->device copies (aten::to) --------------------
	// The DLRM benchmark moves the sparse inputs per table (one index
	// tensor per embedding table), which is a significant share of DLRM's
	// op count and hence of its host overhead.
	denseHost := g.Input(tensor.New(b, cfg.BotMLP[0]))
	labelHost := g.Input(tensor.New(b, 1))
	dense := g.Apply(ops.ToDevice{}, denseHost)[0]
	label := g.Apply(ops.ToDevice{}, labelHost)[0]
	perTable := make([]graph.TensorID, 0, len(cfg.EmbRows))
	for range cfg.EmbRows {
		tblHost := g.Input(tensor.NewTyped(tensor.Int64, b, 1, l))
		perTable = append(perTable, g.Apply(ops.ToDevice{}, tblHost)[0])
	}
	idx := g.Apply(ops.Concat{Dim: 1}, perTable...)[0] // (B, T, L) device indices

	// -- Bottom MLP (activation on every layer, as in the benchmark) --
	bot, botLayers := buildMLP(g, dense, cfg.BotMLP, true)

	// -- Embedding lookup ---------------------------------------------
	var elOut graph.TensorID
	if cfg.FusedEmbedding {
		elOut = g.Apply(ops.EmbeddingLookup{
			Rows: cfg.EmbRows, L: l, D: d, ZipfSkew: cfg.ZipfSkew,
		}, idx)[0]
	} else {
		// One embedding_bag per table, concatenated (Fig. 11 left).
		var outs []graph.TensorID
		for _, rows := range cfg.EmbRows {
			out := g.Apply(ops.EmbeddingBag{
				Rows: rows, L: l, D: d, ZipfSkew: cfg.ZipfSkew,
			}, idx)
			outs = append(outs, out[0])
		}
		elOut = g.Apply(ops.Concat{Dim: 1}, outs...)[0] // (B, T, D)
	}

	// -- Feature interaction -------------------------------------------
	botView := g.Apply(ops.View{NewShape: []int64{-1, 1, d}}, bot)[0] // (B,1,D)
	catIn := g.Apply(ops.Concat{Dim: 1}, botView, elOut)[0]           // (B,F,D)
	catT := g.Apply(ops.TransposeOp{}, catIn)[0]                      // (B,D,F)
	inter := g.Apply(ops.BMM{}, catIn, catT)[0]                       // (B,F,F)
	tril := g.Apply(ops.TrilIndex{}, inter)[0]                        // (B,F(F-1)/2)
	topIn := g.Apply(ops.Concat{Dim: 1}, bot, tril)[0]                // (B, D+tri)

	// -- Top MLP + prediction -------------------------------------------
	topDims := append([]int64{cfg.TopInputDim()}, cfg.TopMLP...)
	z, topLayers := buildMLP(g, topIn, topDims, false)
	pred := g.Apply(ops.Sigmoid(), z)[0]

	// -- Loss -----------------------------------------------------------
	var grad graph.TensorID
	if cfg.Loss == "bce" {
		g.Apply(ops.BCELoss(), pred, label)
		grad = g.Apply(ops.BCELossBackward(), pred, label)[0]
	} else {
		g.Apply(ops.MSELoss(), pred, label)
		grad = g.Apply(ops.MSELossBackward(), pred, label)[0]
	}

	// -- Backward: prediction and top MLP ------------------------------
	grad = g.Apply(ops.SigmoidBackward(), grad)[0]
	grad = backwardMLP(g, grad, topLayers)

	// -- Backward: split top input grad into bottom and tril parts -----
	f := cfg.InteractionFeatures()
	tri := f * (f - 1) / 2
	gradBotFromTop := g.Apply(ops.SliceBackward{Cols: d}, grad)[0]
	gradTril := g.Apply(ops.SliceBackward{Cols: tri}, grad)[0]

	// -- Backward: interaction ------------------------------------------
	gradInter := g.Apply(ops.TrilIndexBackward{F: f}, gradTril)[0] // (B,F,F)
	bmmGrads := g.Apply(ops.BMMBackward{}, gradInter, catIn, catT)
	gradCatA := bmmGrads[0]                              // (B,F,D)
	gradCatT := g.Apply(ops.TBackward{}, bmmGrads[1])[0] // (B,F,D)
	gradCat := g.Apply(ops.Add(), gradCatA, gradCatT)[0]

	// Split the interaction-cat gradient: bottom view part and EL part.
	gradBotView := g.Apply(ops.SliceBackward{Cols: d}, gradCat)[0]
	gradEL := g.Apply(ops.SliceBackward{Cols: t * d}, gradCat)[0]
	gradELView := g.Apply(ops.View{NewShape: []int64{-1, t, d}}, gradEL)[0]

	// -- Backward: embedding (fused SGD update) ------------------------
	if cfg.FusedEmbedding {
		g.Apply(ops.EmbeddingLookup{
			Rows: cfg.EmbRows, L: l, D: d, ZipfSkew: cfg.ZipfSkew, Backward: true,
		}, idx, gradELView)
	} else {
		for _, rows := range cfg.EmbRows {
			g.Apply(ops.EmbeddingBag{
				Rows: rows, L: l, D: d, ZipfSkew: cfg.ZipfSkew, Backward: true,
			}, idx, gradELView)
		}
	}

	// -- Backward: bottom MLP -------------------------------------------
	gradBot := g.Apply(ops.Add(), gradBotFromTop, gradBotView)[0]
	backwardMLP(g, gradBot, botLayers)

	// -- Optimizer -------------------------------------------------------
	params := dlrmParamSizes(cfg)
	g.Apply(ops.OptimizerZeroGrad{ParamSizes: params})
	g.Apply(ops.OptimizerStep{ParamSizes: params})

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Model{Name: cfg.Name, Graph: g, Params: sum(params)}, nil
}

// dlrmParamSizes lists every dense parameter tensor (weights and biases
// of both MLPs), the tensors the optimizer kernels touch.
func dlrmParamSizes(cfg DLRMConfig) []int64 {
	var sizes []int64
	addMLP := func(dims []int64) {
		for i := 1; i < len(dims); i++ {
			sizes = append(sizes, dims[i-1]*dims[i], dims[i])
		}
	}
	addMLP(cfg.BotMLP)
	addMLP(append([]int64{cfg.TopInputDim()}, cfg.TopMLP...))
	return sizes
}

// EmbeddingBagNodes returns the node IDs of the unfused per-table
// embedding ops plus their concat (forward side), the fusion candidates
// of the Fig. 11 case study. It returns nil for fused models.
func EmbeddingBagNodes(m *Model) []graph.NodeID {
	var ids []graph.NodeID
	for _, n := range m.Graph.Nodes {
		if m.Graph.Op(&n).Name() == "aten::embedding_bag" {
			ids = append(ids, n.ID)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	// The concat that merges the bag outputs immediately follows them.
	for _, n := range m.Graph.Nodes {
		if m.Graph.Op(&n).Name() != "aten::cat" {
			continue
		}
		deps := m.Graph.Deps(&n)
		if len(deps) == len(ids) {
			match := true
			set := map[graph.NodeID]bool{}
			for _, id := range ids {
				set[id] = true
			}
			for _, d := range deps {
				if !set[d] {
					match = false
					break
				}
			}
			if match {
				ids = append(ids, n.ID)
				break
			}
		}
	}
	return ids
}

// FuseEmbeddingBags is the Fig. 11 co-design transform, applied in
// place: the per-table embedding_bag ops and their concat collapse into
// one batched EmbeddingLookup over the same tables, and the per-table
// backward bags into its backward twin. It errors on a model with no
// unfused embedding_bag ops. Transform a Clone, never a shared
// structure.
func FuseEmbeddingBags(m *Model) error {
	ids := EmbeddingBagNodes(m)
	if ids == nil {
		return fmt.Errorf("models: %s has no unfused embedding_bag ops", m.Name)
	}
	var fused ops.EmbeddingLookup
	for _, n := range m.Graph.Nodes {
		if bag, ok := m.Graph.Op(&n).(ops.EmbeddingBag); ok && !bag.Backward {
			fused.Rows = append(fused.Rows, bag.Rows)
			fused.L, fused.D, fused.ZipfSkew = bag.L, bag.D, bag.ZipfSkew
		}
	}
	if _, err := m.Graph.ReplaceNodes(ids, fused); err != nil {
		return err
	}
	var bwdIDs []graph.NodeID
	for _, n := range m.Graph.Nodes {
		if m.Graph.Op(&n).Name() == "EmbeddingBagBackward0" {
			bwdIDs = append(bwdIDs, n.ID)
		}
	}
	if len(bwdIDs) == 0 {
		return nil
	}
	fused.Backward = true
	_, err := m.Graph.ReplaceNodes(bwdIDs, fused)
	return err
}

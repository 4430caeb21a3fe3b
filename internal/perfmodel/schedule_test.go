package perfmodel

import (
	"encoding/json"
	"hash/fnv"
	"maps"
	"runtime"
	"slices"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
)

// ensembleOptions are the equivalence tests' quick options with three
// ensemble members, fixed and with a two-configuration grid search,
// and the FNV-64a digest of the registry and Table IV rows each
// calibrates to from seed 31, by device. The V100 digests were recorded
// before calibration was scheduled as units, when each family ran its
// members in turn: they pin the schedule to that calibration bit for
// bit. The fixed ensemble is pinned on P100 and TITAN Xp too, so a
// change to how members are seeded or serialized moves a digest on
// every device.
func ensembleOptions() []struct {
	name    string
	opt     CalibOptions
	digests map[string]uint64
} {
	fixed := fastCalibOptions()
	fixed.Ensemble = 3
	search := fixed
	search.Search = mlp.SearchSpace{
		HiddenLayers: []int{1}, Widths: []int{8, 16}, Optimizers: []string{mlp.Adam},
		LRs: []float64{3e-3}, Epochs: 4, BatchSize: 64,
	}
	return []struct {
		name    string
		opt     CalibOptions
		digests map[string]uint64
	}{
		{"fixed", fixed, map[string]uint64{hw.V100: 0xe34940830221ce2a, hw.P100: 0x184497312973d0b1, hw.TITANXp: 0xdb98c6debfe75e88}},
		{"search", search, map[string]uint64{hw.V100: 0xc062e27e2f29eb35}},
	}
}

// mlpKinds are the families an ML-based model prices.
var mlpKinds = []kernels.Kind{kernels.KindGEMM, kernels.KindTranspose, kernels.KindTrilFwd, kernels.KindTrilBwd, kernels.KindConv}

// TestCalibrationUnitsRunLongestFirst pins the schedule Calibrate hands
// its pool: one unit per family, except one per ensemble member for
// the MLP families, in order of non-increasing cost, so the costliest
// member starts first whatever its place in the plan.
func TestCalibrationUnitsRunLongestFirst(t *testing.T) {
	p, err := hw.ByName(hw.V100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range ensembleOptions() {
		fams, units := calibrationPlan(p.GPU, 31, tc.opt.withDefaults())
		mlps := 0
		for _, f := range fams {
			if slices.Contains(mlpKinds, f.kind) {
				mlps++
			}
		}
		if mlps != len(mlpKinds) {
			t.Fatalf("%s: the plan has %d MLP families, want %d", tc.name, mlps, len(mlpKinds))
		}
		if want := len(fams) + mlps*(tc.opt.Ensemble-1); len(units) != want {
			t.Fatalf("%s: %d units for %d families, %d of them MLP with %d members; want %d", tc.name, len(units), len(fams), mlps, tc.opt.Ensemble, want)
		}
		for i := 1; i < len(units); i++ {
			if units[i].cost > units[i-1].cost {
				t.Fatalf("%s: unit %d costs %v, after one costing %v", tc.name, i, units[i].cost, units[i-1].cost)
			}
		}
		if units[0].cost <= float64(microbench.DefaultSweepSizes()[kernels.KindGEMM]) {
			t.Fatalf("%s: the first unit costs %v, no more than a sweep", tc.name, units[0].cost)
		}
	}
}

// TestCalibrateEnsembleWorkerInvariance: with three ensemble members,
// fixed and searched, every pool size calibrates the registry and the
// Table IV rows recorded before the schedule changed, bit for bit, on
// every device the case pins. With a search, member 0 is the grid's
// winning network and the model trains the winning configuration.
func TestCalibrateEnsembleWorkerInvariance(t *testing.T) {
	for _, tc := range ensembleOptions() {
		for _, device := range slices.Sorted(maps.Keys(tc.digests)) {
			p, err := hw.ByName(device)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
				cal := Calibrate(p.GPU, 31, tc.opt, workers)
				reg, err := SaveRegistry(cal.Registry)
				if err != nil {
					t.Fatal(err)
				}
				evals, err := json.Marshal(cal.Evals)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write(reg)
				h.Write(evals)
				if got := h.Sum64(); got != tc.digests[device] {
					t.Fatalf("%s on %s at workers %d: digest %#x, want %#x", tc.name, device, workers, got, tc.digests[device])
				}
				if len(tc.opt.Search.Configs()) == 0 {
					continue
				}
				// GEMM is the plan's fifth family.
				seed := uint64(31) + 5*seedStride
				train, _ := microbench.CollectKind(p.GPU, kernels.KindGEMM, tc.opt.SweepSizes[kernels.KindGEMM], seed).Split(trainFrac, seed*31+7)
				X, Y := (&Model{BasePeak: p.GPU.PeakFP32, BaseBW: p.GPU.DRAMBandwidth}).residualTargets(train)
				winner, cfg, _ := mlp.GridSearch(X, Y, tc.opt.Search, seed)
				m := cal.Registry.Model(kernels.KindGEMM).(*Model)
				got, _ := json.Marshal(m.Nets[0])
				want, _ := json.Marshal(winner)
				if m.Config != cfg || string(got) != string(want) {
					t.Fatalf("%s at workers %d: GEMM trains %v with member 0 %.60s..., want the grid winner %v, %.60s...", device, workers, m.Config, got, cfg, want)
				}
			}
		}
	}
}

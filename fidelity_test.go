package dlrmperf

import (
	"runtime"
	"slices"
	"testing"

	"dlrmperf/internal/stats"
	"dlrmperf/internal/xsync"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// fidelitySeeds are the model seeds the fast-tier fidelity gate runs at:
// between seeds the fast tier's end-to-end error moves by a factor of
// four, so one seed says little about the model.
var fidelitySeeds = []uint64{2022, 7, 99, 12345, 31337}

// Bounds of the fast-tier fidelity gate, in percent: the medians the
// gate measured when it went in (16.80% end to end, 16.01% active) plus
// two points, and a worst pair of 45% end to end. They only ever
// tighten.
const (
	fidelityMedianE2EPct    = 16.80 + 2
	fidelityMedianActivePct = 16.01 + 2
	fidelityWorstE2EPct     = 45
)

// fidelityBatches are a small and a large batch of the workload's family
// range, the cells bench/ measures fidelity on.
func fidelityBatches(workload string) []int64 {
	switch workload {
	case ResNet50, InceptionV3:
		return []int64{16, 64}
	case Transformer:
		return []int64{64, 256}
	}
	return []int64{512, 2048}
}

// pairFidelity returns the geomean end-to-end and active-time errors,
// in percent, of a fast-tier pipeline at seed on device over every
// workload at its two batches, predicting with overheads collected at
// seed+2 against a measurement at seed+1.
func pairFidelity(device string, seed uint64) (e2e, active float64, err error) {
	pipe, err := NewPipeline(device, WithSeed(seed), WithCalibration(FastCalibConfig(seed, 0).Calib))
	if err != nil {
		return 0, 0, err
	}
	var e2eErr, activeErr []float64
	for _, name := range Workloads() {
		for _, batch := range fidelityBatches(name) {
			w, err := NewModel(name, batch)
			if err != nil {
				return 0, 0, err
			}
			db, err := pipe.CollectOverheads(w, seed+2)
			if err != nil {
				return 0, 0, err
			}
			pred, err := pipe.Predict(w, db)
			if err != nil {
				return 0, 0, err
			}
			m := pipe.Measure(w, seed+1)
			e2eErr = append(e2eErr, stats.AbsRelErr(pred.E2EUs, m.IterTimeUs))
			activeErr = append(activeErr, stats.AbsRelErr(pred.ActiveUs, m.ActiveTimeUs))
		}
	}
	return 100 * stats.Geomean(e2eErr), 100 * stats.Geomean(activeErr), nil
}

// TestFastTierFidelity is the tier-1 fidelity gate (ROADMAP item 1(a),
// step 1): over five model seeds and every device, the fast tier's
// median (seed, device) pair stays within its bounds, and no pair's
// end-to-end error passes the worst-pair bound. A drift that one seed
// hides, or that bench/'s relative bound lets through a step at a time,
// fails here.
func TestFastTierFidelity(t *testing.T) {
	if raceEnabled {
		t.Skip("fifteen calibrations take about ten seconds under the race detector")
	}
	devices := Devices()
	n := len(fidelitySeeds) * len(devices)
	e2e, active, errs := make([]float64, n), make([]float64, n), make([]error, n)
	xsync.ForEachN(n, runtime.GOMAXPROCS(0), func(i int) {
		e2e[i], active[i], errs[i] = pairFidelity(devices[i%len(devices)], fidelitySeeds[i/len(devices)])
	})
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %5d %-8s e2e %6.2f%% active %6.2f%%", fidelitySeeds[i/len(devices)], devices[i%len(devices)], e2e[i], active[i])
	}
	median := func(xs []float64) float64 { return stats.Percentile(xs, 50) }
	if got := median(e2e); got > fidelityMedianE2EPct {
		t.Errorf("median pair's end-to-end error %.2f%% > %.1f%%", got, fidelityMedianE2EPct)
	}
	if got := median(active); got > fidelityMedianActivePct {
		t.Errorf("median pair's active-time error %.2f%% > %.1f%%", got, fidelityMedianActivePct)
	}
	if worst := slices.Max(e2e); worst > fidelityWorstE2EPct {
		t.Errorf("worst pair's end-to-end error %.2f%% > %d%%", worst, fidelityWorstE2EPct)
	}
}

package engine

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/xrand"
)

// FuzzLoadAssets fuzzes the asset install, which reads bytes any client
// can POST to /v1/assets/install and the coordinator's migration
// replays. Its oracles: a rejected payload leaves the engine exactly as
// it was, and an accepted one names a known device whose registry
// prices a kernel of every kind it holds to a finite, positive time
// and whose DLRM_default prediction finds a model for every kernel, and
// every overhead database it installs has a T1 sample and no negative
// mean, standard deviation or count. The seeds are a tiny engine's real
// export (its registry and DLRM_default overheads), that export
// truncated, that export with an embedding heuristic filed under GEMM,
// that export with a GEMM network whose feature std is zero, a hollow
// registry, and the export with a null shared and a null per-workload
// database.
func FuzzLoadAssets(f *testing.F) {
	opts := tinyOptions(7)
	src := New(opts)
	req := NewRequest(hw.V100, models.NameDLRMDefault, 256)
	if res := src.Predict(req); res.Err != nil {
		f.Fatal(res.Err)
	}
	data, err := src.SaveAssets(hw.V100)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(data, &wire); err != nil {
		f.Fatal(err)
	}
	setRegistryModel(f, wire, "GEMM", elModel)
	misfit, err := json.Marshal(wire)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(misfit)
	wire = nil
	if err := json.Unmarshal(data, &wire); err != nil {
		f.Fatal(err)
	}
	zeroFeatStd(f, wire)
	divides, err := json.Marshal(wire)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(divides)
	f.Add([]byte(`{"version":2,"device":"V100","registry":{"device":"V100","models":{}}}`))
	for _, null := range [][2]string{{"shared", `null`}, {"overheads", `{"` + models.NameDLRMDefault + `":null}`}} {
		var wire map[string]json.RawMessage
		if err := json.Unmarshal(data, &wire); err != nil {
			f.Fatal(err)
		}
		wire[null[0]] = json.RawMessage(null[1])
		seed, err := json.Marshal(wire)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(opts)
		before := snapshot(e)
		device, err := e.LoadAssets(data)
		if err != nil {
			if after := snapshot(e); !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected payload (%v) changed the engine: %+v -> %+v", err, before, after)
			}
			return
		}
		if !slices.Contains(hw.Names(), device) {
			t.Fatalf("accepted assets for unknown device %q", device)
		}
		cal, err := e.Calibration(device)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range cal.Registry.Kinds() {
			k := microbench.GenerateKernels(kind, 1, xrand.New(1))[0]
			us, err := cal.Registry.Predict(&k) // a model that cannot price its kind panics here
			if err != nil || !(us > 0) || math.IsInf(us, 1) {
				t.Fatalf("accepted %s assets price %s at %v µs (%v)", device, k, us, err)
			}
		}
		for key, v := range e.store.class(classOverheads).snapshot() {
			db := v.(*overhead.DB)
			stats := append([]overhead.Stats{db.T1}, db.Defaults[:]...)
			for _, st := range db.PerOp {
				stats = append(stats, st[:]...)
			}
			for _, st := range db.T4 {
				stats = append(stats, st)
			}
			for _, st := range stats {
				if db.T1.N < 1 || st.Mean < 0 || st.Std < 0 || st.N < 0 {
					t.Fatalf("accepted %s assets install overheads %s with T1 %+v and a statistic %+v", device, key, db.T1, st)
				}
			}
		}
		if res := e.Predict(NewRequest(device, models.NameDLRMDefault, 256)); errors.Is(res.Err, perfmodel.ErrNoModel) {
			t.Fatalf("accepted %s assets predict %s with a kernel uncovered: %v", device, models.NameDLRMDefault, res.Err)
		}
	})
}

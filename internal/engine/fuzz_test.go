package engine

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/perfmodel"
)

// FuzzLoadAssets fuzzes the asset install, which reads bytes any client
// can POST to /v1/assets/install and the coordinator's migration
// replays. Its oracles: a rejected payload leaves the engine exactly as
// it was, and an accepted one names a known device whose DLRM_default
// prediction finds a model for every kernel. The seeds are a tiny
// engine's real export (its registry and DLRM_default overheads), that
// export truncated, and a hollow registry.
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
	f.Add([]byte(`{"version":1,"device":"V100","registry":{"device":"V100","models":{}}}`))
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
		if res := e.Predict(NewRequest(device, models.NameDLRMDefault, 256)); errors.Is(res.Err, perfmodel.ErrNoModel) {
			t.Fatalf("accepted %s assets predict %s with a kernel uncovered: %v", device, models.NameDLRMDefault, res.Err)
		}
	})
}

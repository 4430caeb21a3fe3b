package engine

import (
	"encoding/json"
	"reflect"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
)

// exportWithOverheads is a fast-tier V100 export holding the registry,
// the DLRM_default overhead database and the shared one.
func exportWithOverheads(tb testing.TB) []byte {
	tb.Helper()
	src := New(tinyOptions(7))
	shared := NewRequest(hw.V100, models.NameDLRMDefault, 512)
	shared.Shared = true
	for _, req := range []Request{NewRequest(hw.V100, models.NameDLRMDefault, 512), shared} {
		if res := src.Predict(req); res.Err != nil {
			tb.Fatal(res.Err)
		}
	}
	data, err := src.SaveAssets(hw.V100)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestLoadAssetsRefusesUnusableOverheads: a payload whose shared or
// per-workload overhead database is null, has no T1 sample, or holds a
// negative statistic is refused whole, and the engine holds what it
// held before. A null database used to decode as an empty one and
// install: the host overheads of every prediction that used it
// silently went to zero.
func TestLoadAssetsRefusesUnusableOverheads(t *testing.T) {
	data := exportWithOverheads(t)
	null := json.RawMessage(`null`)
	editDB := func(raw json.RawMessage, edit func(db *overhead.DB)) json.RawMessage {
		var db overhead.DB
		if err := json.Unmarshal(raw, &db); err != nil {
			t.Fatal(err)
		}
		edit(&db)
		out, err := json.Marshal(&db)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// perWorkload applies edit to the DLRM_default database.
	perWorkload := func(edit func(raw json.RawMessage) json.RawMessage) func(wire map[string]json.RawMessage) {
		return func(wire map[string]json.RawMessage) {
			var dbs map[string]json.RawMessage
			if err := json.Unmarshal(wire["overheads"], &dbs); err != nil || len(dbs[models.NameDLRMDefault]) == 0 {
				t.Fatalf("export holds no %s overheads (%v)", models.NameDLRMDefault, err)
			}
			dbs[models.NameDLRMDefault] = edit(dbs[models.NameDLRMDefault])
			wire["overheads"], _ = json.Marshal(dbs)
		}
	}
	shared := func(edit func(raw json.RawMessage) json.RawMessage) func(wire map[string]json.RawMessage) {
		return func(wire map[string]json.RawMessage) {
			if len(wire["shared"]) == 0 {
				t.Fatal("export holds no shared overheads")
			}
			wire["shared"] = edit(wire["shared"])
		}
	}
	for _, tc := range []struct {
		name string
		edit func(wire map[string]json.RawMessage)
	}{
		{"a null shared DB", shared(func(json.RawMessage) json.RawMessage { return null })},
		{"a null per-workload DB", perWorkload(func(json.RawMessage) json.RawMessage { return null })},
		{"an empty shared DB", shared(func(json.RawMessage) json.RawMessage { return json.RawMessage(`{}`) })},
		{"a per-workload DB with no T1 sample", perWorkload(func(raw json.RawMessage) json.RawMessage {
			return editDB(raw, func(db *overhead.DB) { db.T1.N = 0 })
		})},
		{"a shared DB with a negative T1 mean", shared(func(raw json.RawMessage) json.RawMessage {
			return editDB(raw, func(db *overhead.DB) { db.T1.Mean = -1 })
		})},
		{"a per-workload DB with a negative T2 std", perWorkload(func(raw json.RawMessage) json.RawMessage {
			return editDB(raw, func(db *overhead.DB) {
				for op, st := range db.PerOp {
					st[0].Std = -0.5
					db.PerOp[op] = st
					break
				}
			})
		})},
		{"a shared DB with a negative T4 count", shared(func(raw json.RawMessage) json.RawMessage {
			return editDB(raw, func(db *overhead.DB) { db.T4["cudaLaunchKernel"] = overhead.Stats{Mean: 10, N: -3} })
		})},
		{"a per-workload DB with a negative default T5 mean", perWorkload(func(raw json.RawMessage) json.RawMessage {
			return editDB(raw, func(db *overhead.DB) { db.Defaults[2].Mean = -2 })
		})},
	} {
		var wire map[string]json.RawMessage
		if err := json.Unmarshal(data, &wire); err != nil {
			t.Fatal(err)
		}
		tc.edit(wire)
		payload, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		e := New(tinyOptions(7))
		before := snapshot(e)
		if _, err := e.LoadAssets(payload); err == nil {
			t.Fatalf("payload with %s was accepted", tc.name)
		}
		if after := snapshot(e); !reflect.DeepEqual(after, before) {
			t.Fatalf("rejected payload (%s) changed the engine: %+v -> %+v", tc.name, before, after)
		}
	}
	if _, err := New(tinyOptions(7)).LoadAssets(data); err != nil {
		t.Fatalf("the unedited export was refused: %v", err)
	}
}

// BenchmarkAssetHandoff times one warm hand-off of a fast-tier V100:
// SaveAssets of its registry with the DLRM_default and shared overhead
// databases, then LoadAssets into a fresh engine. The micro gate tracks
// it; the cold-start workload of bench/ pays it once per operation.
func BenchmarkAssetHandoff(b *testing.B) {
	opts := tinyOptions(7)
	data := exportWithOverheads(b)
	src := New(opts)
	if _, err := src.LoadAssets(data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := src.SaveAssets(hw.V100)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := New(opts).LoadAssets(data); err != nil {
			b.Fatal(err)
		}
	}
}

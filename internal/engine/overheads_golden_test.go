package engine

import (
	"hash/fnv"
	"reflect"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
)

// The served-database oracle: FNV-64a of Marshal() — Defaults included —
// of every overhead database an engine serves at the serving defaults,
// on every device: each workload's own, pooled over its family's batch
// sizes, and the shared one, pooled across the DLRM workloads as well.
// Those pools are what a concurrent merge could reorder, and a float
// mean changes with the order it sums in. Recorded from the tree that
// extracted and pooled every trace serially, on one goroutine.
var servedDigests = map[string]uint64{
	"P100/DLRM_DDP":         0x213b4a25eca31e46,
	"P100/DLRM_MLPerf":      0xaeed8da87cab7968,
	"P100/DLRM_default":     0x32ebc4bfec0bebdc,
	"P100/Transformer":      0x47a777d70436b890,
	"P100/inception_v3":     0x5483e8d7f14d3d51,
	"P100/resnet50":         0x538d400ca258456f,
	"P100/shared":           0x460609bb23d7f47e,
	"TITAN Xp/DLRM_DDP":     0x4408acb75feb4358,
	"TITAN Xp/DLRM_MLPerf":  0xc2ffc2cb07f9f7b9,
	"TITAN Xp/DLRM_default": 0x7c4f3b08de5b04c3,
	"TITAN Xp/Transformer":  0xba8a1e2892421c15,
	"TITAN Xp/inception_v3": 0x1ebe2ff38c884af5,
	"TITAN Xp/resnet50":     0xcc9ebe71580c7787,
	"TITAN Xp/shared":       0xde607a373afcbe28,
	"V100/DLRM_DDP":         0x80eb8fbfb5fb9f10,
	"V100/DLRM_MLPerf":      0x04961905de713a71,
	"V100/DLRM_default":     0x2402f3fe98bb1f58,
	"V100/Transformer":      0x14d4d32713adaeb3,
	"V100/inception_v3":     0x52fdcac704f95618,
	"V100/resnet50":         0x80942ed11d0260f5,
	"V100/shared":           0x6a2c5fe81a882986,
}

var servedWorkloads = []string{
	models.NameDLRMDefault, models.NameDLRMMLPerf, models.NameDLRMDDP,
	models.NameResNet50, models.NameInceptionV3, models.NameTransformer,
}

// servedDatabases collects every served database of one engine, keyed
// device/workload (device/shared for the shared one).
func servedDatabases(t *testing.T, workers int) map[string]*overhead.DB {
	t.Helper()
	e := New(Options{Seed: 11, Workers: workers})
	out := map[string]*overhead.DB{}
	for _, device := range hw.Names() {
		for _, w := range servedWorkloads {
			db, err := e.OverheadDB(device, w)
			if err != nil {
				t.Fatal(err)
			}
			out[device+"/"+w] = db
		}
		db, err := e.SharedOverheadDB(device)
		if err != nil {
			t.Fatal(err)
		}
		out[device+"/shared"] = db
	}
	return out
}

// TestServedDatabasesGolden pins the served databases bit for bit, and
// their independence of how many goroutines simulate, extract and trim.
func TestServedDatabasesGolden(t *testing.T) {
	serial := servedDatabases(t, 1)
	if want := len(hw.Names()) * (len(servedWorkloads) + 1); len(serial) != want || len(servedDigests) != want {
		t.Fatalf("%d databases, %d digests, want %d", len(serial), len(servedDigests), want)
	}
	for key, db := range serial {
		raw, err := db.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(raw)
		if got, want := h.Sum64(), servedDigests[key]; got != want {
			t.Errorf("%q: %#016x, // golden is %#016x", key, got, want)
		}
	}
	for key, db := range servedDatabases(t, 4) {
		if !reflect.DeepEqual(db, serial[key]) {
			t.Errorf("%s: Workers 4 differs from Workers 1", key)
		}
	}
}

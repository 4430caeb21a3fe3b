package overhead

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/trace"
)

func profiledTrace(t *testing.T, model string, batch int64, seed uint64) *trace.Trace {
	t.Helper()
	m, err := models.Build(model, batch)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.Record(m.Graph, sim.Config{
		Platform: hw.V100Platform(), Seed: seed, Warmup: 2, Iters: 25,
		Profile: true, Workload: model,
	})
	return tr
}

func TestExtractionRecoversT1Mean(t *testing.T) {
	r := profiledTrace(t, models.NameDLRMDefault, 1024, 1)
	db := FromTrace(r)
	want := sim.T1Mean * hw.V100Platform().Host.OverheadScale
	// Trimming removes the long tail, so the estimate sits at or slightly
	// below the distribution mean.
	if db.T1.Mean < want*0.75 || db.T1.Mean > want*1.15 {
		t.Errorf("T1 mean = %v, want ~%v", db.T1.Mean, want)
	}
	if db.T1.N == 0 || db.T1.Std <= 0 {
		t.Errorf("T1 stats incomplete: %+v", db.T1)
	}
}

func TestExtractionRecoversPerOpT2(t *testing.T) {
	r := profiledTrace(t, models.NameDLRMDefault, 1024, 2)
	db := FromTrace(r)
	host := hw.V100Platform().Host
	s := sim.NewSampler(host, 0, models.NameDLRMDefault)
	for _, op := range []string{"aten::linear", "AddmmBackward0", "aten::relu"} {
		st, ok := db.PerOp[op]
		if !ok {
			t.Fatalf("no stats for %s", op)
		}
		want := s.MeanFor(sim.T2, op)
		got := st[0].Mean
		// The extracted value carries the workload bias and trimming, so
		// allow a generous band around the base mean.
		if got < want*0.6 || got > want*1.5 {
			t.Errorf("%s T2 = %v, want ~%v", op, got, want)
		}
	}
}

func TestSizeIndependenceAcrossBatches(t *testing.T) {
	a := FromTrace(profiledTrace(t, models.NameDLRMDefault, 512, 3))
	b := FromTrace(profiledTrace(t, models.NameDLRMDefault, 4096, 4))
	// The paper's size-independence: per-op T2 means agree across batch
	// sizes up to sampling noise.
	for _, op := range []string{"aten::linear", "aten::relu"} {
		ma, _, _ := a.OpMeans(op)
		mb, _, _ := b.OpMeans(op)
		if math.Abs(ma-mb)/ma > 0.25 {
			t.Errorf("%s T2 varies with batch: %v vs %v", op, ma, mb)
		}
	}
}

func TestKernellessOpsGetT5(t *testing.T) {
	r := profiledTrace(t, models.NameDLRMDefault, 512, 5)
	db := FromTrace(r)
	st, ok := db.PerOp["aten::view"]
	if !ok {
		t.Fatal("no stats for aten::view")
	}
	if st[2].N == 0 {
		t.Error("host-only op has no T5 samples")
	}
	if st[0].N != 0 {
		t.Error("host-only op should have no T2 samples")
	}
	// Each mean falls back to the default on its own: the view has a T5
	// of its own and the default T2.
	if t2, _, t5 := db.OpMeans("aten::view"); t2 != db.Defaults[0].Mean || t5 != st[2].Mean {
		t.Errorf("view means = (%v, %v), want (%v, %v)", t2, t5, db.Defaults[0].Mean, st[2].Mean)
	}
}

func TestT4PerFunction(t *testing.T) {
	r := profiledTrace(t, models.NameDLRMDefault, 1024, 6)
	db := FromTrace(r)
	launch, okL := db.T4["cudaLaunchKernel"]
	memcpy, okM := db.T4["cudaMemcpyAsync"]
	if !okL || !okM {
		t.Fatalf("missing T4 entries: launch=%v memcpy=%v", okL, okM)
	}
	if memcpy.Mean <= launch.Mean {
		t.Errorf("cudaMemcpyAsync (%v) should exceed cudaLaunchKernel (%v)", memcpy.Mean, launch.Mean)
	}
}

func TestSharedPoolsWorkloads(t *testing.T) {
	a := profiledTrace(t, models.NameDLRMDefault, 1024, 7)
	b := profiledTrace(t, models.NameDLRMMLPerf, 1024, 8)
	shared := Shared([]*trace.Trace{a, b})
	ind := FromTrace(a)
	// The shared DB must cover the union of ops, including BCE (MLPerf
	// only) which the default-model DB lacks.
	if _, ok := shared.PerOp["aten::binary_cross_entropy"]; !ok {
		t.Error("shared DB missing MLPerf-only op")
	}
	if _, ok := ind.PerOp["aten::binary_cross_entropy"]; ok {
		t.Error("individual default DB unexpectedly has BCE stats")
	}
	// Pooling across workloads shifts per-op means (the workload bias),
	// but not wildly.
	si, _, _ := ind.OpMeans("aten::linear")
	ss, _, _ := shared.OpMeans("aten::linear")
	if si == ss {
		t.Error("shared and individual T2 identical; expected workload-bias shift")
	}
	if math.Abs(si-ss)/si > 0.5 {
		t.Errorf("shared vs individual T2 differ too much: %v vs %v", si, ss)
	}
}

// poolWith builds tr's database with c.
func poolWith(t *testing.T, c *Collector, tr *trace.Trace) *DB {
	t.Helper()
	db, err := c.Pool(1, 1, func(int) (*Samples, error) { return c.extract(tr), nil })
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestTrimmingLowersT1Estimate(t *testing.T) {
	// Long-tailed T1 samples mean the raw mean exceeds the trimmed mean —
	// the paper's explanation for its systematic E2E underestimation.
	r := profiledTrace(t, models.NameDLRMDefault, 1024, 9)
	trimmed := FromTrace(r)
	raw := NewCollector()
	raw.TrimK = -1
	rawDB := poolWith(t, raw, r)
	if rawDB.T1.Mean <= trimmed.T1.Mean {
		t.Errorf("raw T1 mean (%v) should exceed trimmed (%v)", rawDB.T1.Mean, trimmed.T1.Mean)
	}
	// TrimK = 0 disables trimming too: every sample is kept, where
	// stats.TrimmedSeries(xs, 0, s) would cut the population to [Q1, Q3].
	off := NewCollector()
	off.TrimK = 0
	if zeroDB := poolWith(t, off, r); !reflect.DeepEqual(zeroDB, rawDB) {
		t.Errorf("TrimK 0 gives T1 %+v, untrimmed gives %+v", zeroDB.T1, rawDB.T1)
	}
}

// TestPoolKeepsListedOrder: pooling does not depend on the worker
// count, and a supplier's error comes back, the first in listed order.
func TestPoolKeepsListedOrder(t *testing.T) {
	trs := []*trace.Trace{
		profiledTrace(t, models.NameDLRMDefault, 512, 11),
		profiledTrace(t, models.NameDLRMMLPerf, 512, 12),
		profiledTrace(t, models.NameDLRMDDP, 512, 13),
	}
	c := NewCollector()
	pool := func(workers int, fail map[int]error) (*DB, error) {
		return c.Pool(len(trs), workers, func(i int) (*Samples, error) {
			if err := fail[i]; err != nil {
				return nil, err
			}
			return c.extract(trs[i]), nil
		})
	}
	serial, err := pool(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		if db, err := pool(workers, nil); err != nil || !reflect.DeepEqual(db, serial) {
			t.Errorf("%d workers: database differs from one worker's (err %v)", workers, err)
		}
	}
	first, second := errors.New("first"), errors.New("second")
	if _, err := pool(3, map[int]error{2: second, 1: first}); err != first {
		t.Errorf("Pool error = %v, want the first in listed order", err)
	}
}

func TestDBJSONRoundTrip(t *testing.T) {
	r := profiledTrace(t, models.NameDLRMDefault, 512, 10)
	db := FromTrace(r)
	data, err := db.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.T1.Mean != db.T1.Mean {
		t.Errorf("T1 mean changed in round trip: %v vs %v", got.T1.Mean, db.T1.Mean)
	}
	g2, g3, g5 := got.OpMeans("aten::linear")
	d2, d3, d5 := db.OpMeans("aten::linear")
	if g2 != d2 || g3 != d3 || g5 != d5 {
		t.Error("per-op means changed in round trip")
	}
	if len(got.PerOp) != len(db.PerOp) {
		t.Errorf("op census changed: %d vs %d", len(got.PerOp), len(db.PerOp))
	}
}

func TestLoadEmpty(t *testing.T) {
	db, err := Load([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if db.PerOp == nil || db.T4 == nil {
		t.Error("Load should initialize maps")
	}
	// Unknown op falls back to defaults (zero here).
	if t2, t3, t5 := db.OpMeans("nope"); t2 != 0 || t3 != 0 || t5 != 0 {
		t.Error("empty DB default should be 0")
	}
}

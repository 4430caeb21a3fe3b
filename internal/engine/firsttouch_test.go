package engine

import (
	"reflect"
	"sync"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/workload"
)

// BenchmarkFirstTouch measures what a calibrated engine pays the first
// time it sees a workload family on a device: the profiled simulated
// runs at the family's evaluation batch sizes (the serving defaults: 30
// iterations, four DLRM / three CNN / three Transformer batch sizes),
// each writing its overhead samples as it goes, the pooled database, and
// one prediction. The dlrm-shared row pools the device's shared database
// over every DLRM family's runs, and each family's own from the same
// runs. The
// calibration arrives through LoadAssets outside the timer; the runs
// and overheads classes are cold on every iteration.
func BenchmarkFirstTouch(b *testing.B) {
	opts := tinyOptions(7)
	opts.Iters, opts.DLRMBatches = 0, nil
	assets, err := New(opts).SaveAssets(hw.V100)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, model string
		shared      bool
	}{
		{"dlrm", models.NameDLRMDefault, false},
		{"dlrm-shared", models.NameDLRMDefault, true},
		{"cnn", models.NameInceptionV3, false},
		{"transformer", models.NameTransformer, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := Request{Device: hw.V100, Scenario: scenario.Single(c.model, 512), Shared: c.shared}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := New(opts)
				if _, err := e.LoadAssets(assets); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if res := e.Predict(req); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// TestIterSpanBytesIsStructSize pins the runs class's per-iteration
// charge to the element a measured run keeps its iteration spans in.
func TestIterSpanBytesIsStructSize(t *testing.T) {
	f, ok := reflect.TypeOf(sim.Result{}).FieldByName("IterSpans")
	if !ok {
		t.Fatal("sim.Result has no IterSpans field")
	}
	if got := f.Type.Elem().Size(); got != iterSpanBytes {
		t.Errorf("iterSpanBytes = %d, but an iteration span is %d bytes", iterSpanBytes, got)
	}
}

// TestScenarioShapeChargedOnce: a scenario shape is metered by its own
// case, per shard at the size of a shard and of the tables it lists,
// and a cached multi-GPU result is charged the same whether or not it
// points at its shape's plan — the plan is charged once, with the shape.
func TestScenarioShapeChargedOnce(t *testing.T) {
	if got := reflect.TypeOf(shardShape{}).Size(); got != shardBytes {
		t.Errorf("shardBytes = %d, but a shard is %d bytes", shardBytes, got)
	}
	if got := reflect.TypeOf(workload.TableSpec{}).Size(); got != tableSpecBytes {
		t.Errorf("tableSpecBytes = %d, but a table is %d bytes", tableSpecBytes, got)
	}
	e := New(tinyOptions(7))
	spec, err := scenario.Build("dlrm-criteo-4gpu", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := e.compile(Request{Device: hw.V100, Scenario: spec})
	if err != nil {
		t.Fatal(err)
	}
	pl.release()
	var keys, tables int64
	for _, s := range pl.shape.shards {
		keys, tables = keys+int64(len(s.key)), tables+int64(len(s.tables))
	}
	// The store entry's overhead and the shape's own fields are 48 bytes each.
	if got, want := approxBytes(pl.shape), int64(48+48+4*shardBytes)+keys+tables*(tableSpecBytes+8); got != want {
		t.Errorf("shape of 4 shards over %d tables charged %d bytes, want %d", tables, got, want)
	}
	res := e.Predict(Request{Device: hw.V100, Scenario: spec})
	if res.Err != nil || res.Plan != pl.shape.plan {
		t.Fatalf("result: err %v, plan %p not the shape's %p", res.Err, res.Plan, pl.shape.plan)
	}
	if with, without := approxBytes(cached{res.Prediction, res.Multi, res.Plan}), approxBytes(cached{res.Prediction, res.Multi, nil}); with != without {
		t.Errorf("a result is charged %d bytes with its shape's plan, %d without", with, without)
	}
}

// TestRunChargeIsItsNumbers: a measured run keeps its numbers, not an
// event log, so doubling the iterations adds exactly the added iteration
// spans to its charge, and it holds one device time per op.
func TestRunChargeIsItsNumbers(t *testing.T) {
	m, err := models.Build(models.NameDLRMDefault, 256)
	if err != nil {
		t.Fatal(err)
	}
	run := func(iters int) *sim.Result {
		return sim.Run(m.Graph, sim.Config{
			Platform: hw.V100Platform(), Seed: 3, Warmup: 1, Iters: iters,
			Profile: true, Workload: models.NameDLRMDefault,
		})
	}
	short, long := run(5), run(10)
	if got := approxBytes(long) - approxBytes(short); got != 5*iterSpanBytes {
		t.Errorf("doubling the iterations adds %d bytes to the charge, the spans grow by %d", got, 5*iterSpanBytes)
	}
	if len(long.DeviceTime) == 0 || len(long.DeviceTime) != len(short.DeviceTime) {
		t.Errorf("device time of %d ops over 10 iterations, %d over 5", len(long.DeviceTime), len(short.DeviceTime))
	}
}

// TestSampleBytesIsStructSize pins the runs class's per-sample charge to
// the element of the slice a Samples holds its samples in.
func TestSampleBytesIsStructSize(t *testing.T) {
	f, ok := reflect.TypeOf(overhead.Samples{}).FieldByName("samples")
	if !ok {
		t.Fatal("overhead.Samples has no samples field")
	}
	if got := f.Type.Elem().Size(); got != sampleBytes {
		t.Errorf("sampleBytes = %d, but a sample is %d bytes", sampleBytes, got)
	}
}

// TestSamplesChargeIsTheirLength: a profiled run is charged for its
// samples alone, so doubling the iterations adds exactly the added
// samples.
func TestSamplesChargeIsTheirLength(t *testing.T) {
	m, err := models.Build(models.NameDLRMDefault, 256)
	if err != nil {
		t.Fatal(err)
	}
	profile := func(iters int) *overhead.Samples {
		return overhead.NewCollector().Profile(m.Graph, sim.Config{
			Platform: hw.V100Platform(), Seed: 3, Warmup: 1, Iters: iters,
			Profile: true, Workload: models.NameDLRMDefault,
		})
	}
	short, long := profile(5), profile(10)
	if long.Len() != 2*short.Len() {
		t.Fatalf("%d samples over 10 iterations, %d over 5", long.Len(), short.Len())
	}
	if got, want := approxBytes(long)-approxBytes(short), int64(long.Len()-short.Len())*sampleBytes; got != want {
		t.Errorf("doubling the iterations adds %d bytes to the charge, the samples grow by %d", got, want)
	}
}

// TestConcurrentPoolsShareSamples: the per-workload and shared databases
// of a device pool the same memoized samples. Built at once on one
// engine whose samples are already resident, each equals the database a
// fresh engine builds alone; under -race this also checks that pooling
// only reads the samples.
func TestConcurrentPoolsShareSamples(t *testing.T) {
	opts := Options{Seed: 5, Iters: 5, DLRMBatches: []int64{256, 512}, Workers: 2}
	keys := append(models.DLRMNames(), "")
	build := func(e *Engine, model string) *overhead.DB {
		get := e.SharedOverheadDB
		if model != "" {
			get = func(device string) (*overhead.DB, error) { return e.OverheadDB(device, model) }
		}
		db, err := get(hw.V100)
		if err != nil {
			t.Error(err)
		}
		return db
	}
	e := New(opts)
	for _, model := range models.DLRMNames() {
		for _, b := range opts.DLRMBatches {
			if _, err := e.Samples(hw.V100, model, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make([]*overhead.DB, len(keys))
	var wg sync.WaitGroup
	for i, model := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = build(e, model)
		}()
	}
	wg.Wait()
	for i, model := range keys {
		if want := build(New(opts), model); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%q: concurrent build differs from a serial one", model)
		}
	}
	if runs := e.AssetStats().Class("runs"); runs.Misses != uint64(len(models.DLRMNames())*len(opts.DLRMBatches)) {
		t.Errorf("runs class: %d misses, want one per profiled run", runs.Misses)
	}
}

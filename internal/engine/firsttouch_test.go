package engine

import (
	"testing"
	"unsafe"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/trace"
)

// BenchmarkFirstTouch measures what a calibrated engine pays the first
// time it sees a workload family on a device: the profiled simulated
// runs at the family's evaluation batch sizes (the serving defaults: 30
// iterations, four DLRM / three CNN / three Transformer batch sizes),
// the overhead extraction over their traces, and one prediction. The
// calibration arrives through LoadAssets outside the timer; the runs
// and overheads classes are cold on every iteration.
func BenchmarkFirstTouch(b *testing.B) {
	opts := tinyOptions(7)
	opts.Iters, opts.DLRMBatches = 0, nil
	opts.Calib.IncludeCNN = true
	assets, err := New(opts).SaveAssets(hw.V100)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, model string }{
		{"dlrm", models.NameDLRMDefault},
		{"cnn", models.NameInceptionV3},
		{"transformer", models.NameTransformer},
	} {
		b.Run(c.name, func(b *testing.B) {
			req := Request{Device: hw.V100, Scenario: scenario.Single(c.model, 512)}
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

// TestEventBytesIsStructSize pins the runs class's per-event charge to
// the struct the log is made of, so the resident-byte figure follows
// any change to trace.Event.
func TestEventBytesIsStructSize(t *testing.T) {
	if got := unsafe.Sizeof(trace.Event{}); got != eventBytes {
		t.Errorf("eventBytes = %d, but a trace.Event is %d bytes", eventBytes, got)
	}
	if got := unsafe.Sizeof([2]float64{}); got != iterSpanBytes {
		t.Errorf("iterSpanBytes = %d, but an iteration span is %d bytes", iterSpanBytes, got)
	}
}

// TestRunChargeIsItsLog: every iteration's events share one name string
// per node, so a run is charged for its log alone, and doubling the
// iterations adds exactly the added events and iteration spans.
func TestRunChargeIsItsLog(t *testing.T) {
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
	added := int64(len(long.Trace.Events)-len(short.Trace.Events))*eventBytes + 5*iterSpanBytes
	if got := approxBytes(long) - approxBytes(short); got != added {
		t.Errorf("doubling the iterations adds %d bytes to the charge, the log grows by %d", got, added)
	}
}

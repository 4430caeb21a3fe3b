package engine

import (
	"testing"
	"unsafe"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/scenario"
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
}

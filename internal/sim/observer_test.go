package sim

import (
	"fmt"
	"math"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
)

// tally is an Observer that counts what it is shown.
type tally struct{ ops, calls int }

func (o *tally) Op(_ int, _ string, _, _ float64, calls []Call) {
	o.ops++
	o.calls += len(calls)
}

// TestObserverMatchesTrace: an observed run makes the draws a traced run
// makes, so its iteration spans are bit-equal to the traced run's; it
// records no event, and is shown every op and runtime call the log
// would hold (each call's kernel is the log's third event kind).
func TestObserverMatchesTrace(t *testing.T) {
	for _, p := range hw.All() {
		for _, w := range goldenWorkloads {
			m, err := models.Build(w, goldenBatch)
			if err != nil {
				t.Fatal(err)
			}
			for _, profiled := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/profiled=%t", p.GPU.Name, w, profiled)
				cfg := Config{Platform: p, Seed: goldenSeed, Warmup: goldenWarmup, Iters: goldenIters, Profile: profiled, Workload: w}
				traced := Run(m.Graph, cfg)
				obs := &tally{}
				cfg.Observer = obs
				got := Run(m.Graph, cfg)
				if len(got.Trace.IterSpans) != len(traced.Trace.IterSpans) {
					t.Fatalf("%s: %d iteration spans, traced %d", key, len(got.Trace.IterSpans), len(traced.Trace.IterSpans))
				}
				for i, s := range got.Trace.IterSpans {
					for j := range s {
						if math.Float64bits(s[j]) != math.Float64bits(traced.Trace.IterSpans[i][j]) {
							t.Errorf("%s: span %d is %v, traced %v", key, i, s, traced.Trace.IterSpans[i])
						}
					}
				}
				if got.MeanIterTime != traced.MeanIterTime || got.MeanActiveTime != 0 || len(got.Trace.Events) != 0 {
					t.Errorf("%s: mean %v (traced %v), active %v, %d events", key, got.MeanIterTime, traced.MeanIterTime, got.MeanActiveTime, len(got.Trace.Events))
				}
				if n := obs.ops + 2*obs.calls; n != len(traced.Trace.Events) {
					t.Errorf("%s: observer saw %d ops and %d calls, the log holds %d events", key, obs.ops, obs.calls, len(traced.Trace.Events))
				}
			}
		}
	}
}

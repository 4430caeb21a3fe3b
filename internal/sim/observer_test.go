package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/trace"
)

// tally is an Observer that counts what it is shown.
type tally struct{ ops, calls int }

func (o *tally) Op(op *sim.Op) {
	o.ops++
	o.calls += len(op.Calls)
}

// TestObserverMatchesTrace: an observer changes nothing about a run, so
// an observed, a recorded and an unobserved run give equal results; the
// observer is shown every op and runtime call the recorded log holds
// (each call's kernel is the log's third event kind); and the numbers a
// run measures itself are, bit for bit, the analyses of its log.
func TestObserverMatchesTrace(t *testing.T) {
	for _, p := range hw.All() {
		for _, w := range goldenWorkloads {
			m, err := models.Build(w, goldenBatch)
			if err != nil {
				t.Fatal(err)
			}
			for _, profiled := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/profiled=%t", p.GPU.Name, w, profiled)
				cfg := goldenConfig(p, w, profiled)
				plain := sim.Run(m.Graph, cfg)
				tr, recorded := trace.Record(m.Graph, cfg)
				obs := &tally{}
				cfg.Observer = obs
				if observed := sim.Run(m.Graph, cfg); !reflect.DeepEqual(observed, plain) || !reflect.DeepEqual(recorded, plain) {
					t.Errorf("%s: an observer changed the result", key)
				}
				if n := obs.ops + 2*obs.calls; n != len(tr.Events) {
					t.Errorf("%s: observer saw %d ops and %d calls, the log holds %d events", key, obs.ops, obs.calls, len(tr.Events))
				}
				if plain.MeanIterTime != tr.MeanIterationTime() || plain.MeanActiveTime != tr.MeanActiveTime() || plain.Utilization() != tr.Utilization() {
					t.Errorf("%s: iteration %v, active %v, utilization %v; the log gives %v, %v, %v", key,
						plain.MeanIterTime, plain.MeanActiveTime, plain.Utilization(), tr.MeanIterationTime(), tr.MeanActiveTime(), tr.Utilization())
				}
				if got, want := plain.Breakdown(0), tr.Breakdown(0); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: breakdown %+v, the log gives %+v", key, got, want)
				}
			}
		}
	}
}

package predict

import (
	"testing"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
)

// TestCommModelEdgeCases pins the alpha-beta collective model at its
// boundaries: no communication on one device, the n=2 algorithmic
// factors, and pure-latency zero-byte collectives.
func TestCommModelEdgeCases(t *testing.T) {
	c := CommModel{Alpha: 10, BusBW: 1000}
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"allreduce n=1 is free", c.AllReduce(1<<20, 1), 0},
		{"alltoall n=1 is free", c.AllToAll(1<<20, 1), 0},
		{"allreduce n=0 is free", c.AllReduce(1<<20, 0), 0},
		// A ring over n devices takes 2*(n-1) all-reduce steps and n-1
		// all-to-all steps, each paying the launch latency alpha.
		{"allreduce zero bytes pays per-step latency", c.AllReduce(0, 4), 6 * c.Alpha},
		{"alltoall zero bytes pays per-step latency", c.AllToAll(0, 4), 3 * c.Alpha},
		// Ring all-reduce moves 2*(n-1)/n of the payload: n=2 -> factor 1,
		// over 2 steps.
		{"allreduce n=2 factor", c.AllReduce(1000, 2), 2*c.Alpha + 1000.0/c.BusBW},
		// All-to-all keeps (n-1)/n off-device: n=2 -> factor 1/2, 1 step.
		{"alltoall n=2 factor", c.AllToAll(1000, 2), c.Alpha + 500.0/c.BusBW},
		// n=4: factors 2*3/4 and 3/4, over 6 and 3 steps.
		{"allreduce n=4 factor", c.AllReduce(1000, 4), 6*c.Alpha + 1500.0/c.BusBW},
		{"alltoall n=4 factor", c.AllToAll(1000, 4), 3*c.Alpha + 750.0/c.BusBW},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestCommByName(t *testing.T) {
	for name, want := range map[string]CommModel{
		"":       NVLinkCommModel(),
		"nvlink": NVLinkCommModel(),
		"NVLink": NVLinkCommModel(),
		"pcie":   PCIeCommModel(),
	} {
		got, err := CommByName(name)
		if err != nil || got != want {
			t.Errorf("CommByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := CommByName("carrier-pigeon"); err == nil {
		t.Error("unknown comm model accepted")
	}
}

// flatModel prices every kernel at a constant time, which is all the
// multi-GPU composition logic needs from the kernel-model layer.
type flatModel float64

func (f flatModel) Predict(k *kernels.Kernel) float64 { return float64(f) }

// flatPredictor builds a Predictor whose kernels all take `us`
// microseconds and whose overheads are the database defaults.
func flatPredictor(us float64) *Predictor {
	reg := perfmodel.NewRegistry("test")
	for _, kind := range kernels.Kinds() {
		reg.Register(kind, flatModel(us))
	}
	return New(reg, &overhead.DB{})
}

func builtGraph(t *testing.T, name string, batch int64) *graph.Graph {
	t.Helper()
	m, err := models.Build(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	return m.Graph
}

func dlrmGraph(t *testing.T, batch int64) *graph.Graph {
	return builtGraph(t, models.NameDLRMDefault, batch)
}

// replicas is data parallelism over n devices: every device runs g.
func replicas(g *graph.Graph, n int) []*graph.Graph {
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = g
	}
	return gs
}

// TestPredictDataParallelInvariants: for one graph on every device and
// fixed payloads, scaling efficiency lies in (0, 1] and never improves
// as the device count grows — more devices mean strictly more
// communication against the same compute.
func TestPredictDataParallelInvariants(t *testing.T) {
	p := flatPredictor(5)
	g := dlrmGraph(t, 512)
	const denseParams, embActBytes = 2_000_000, 4 << 20

	prev := 2.0
	var singleE2E float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		mp, err := p.PredictSharded(replicas(g, n), denseParams, embActBytes, NVLinkCommModel())
		if err != nil {
			t.Fatal(err)
		}
		if mp.Devices != n {
			t.Errorf("n=%d: Devices = %d", n, mp.Devices)
		}
		se := mp.ScalingEfficiency
		if se <= 0 || se > 1 {
			t.Errorf("n=%d: scaling efficiency %v outside (0,1]", n, se)
		}
		if se > prev {
			t.Errorf("n=%d: efficiency %v above n-smaller value %v (not monotone)", n, se, prev)
		}
		prev = se
		if n == 1 {
			singleE2E = mp.E2E
			if se != 1 {
				t.Errorf("n=1: efficiency = %v, want exactly 1", se)
			}
			if mp.AllReduceUs != 0 || mp.AllToAllUs != 0 {
				t.Errorf("n=1 priced collectives: %+v", mp)
			}
		} else {
			if mp.E2E <= singleE2E {
				t.Errorf("n=%d: E2E %v not above single-device %v", n, mp.E2E, singleE2E)
			}
			if mp.E2E != singleE2E+mp.AllReduceUs+mp.AllToAllUs {
				t.Errorf("n=%d: E2E %v != compute %v + collectives %v + %v",
					n, mp.E2E, singleE2E, mp.AllReduceUs, mp.AllToAllUs)
			}
		}
	}

	if _, err := p.PredictSharded(replicas(g, 0), denseParams, embActBytes, NVLinkCommModel()); err == nil {
		t.Error("device count 0 accepted")
	}
}

// TestPredictShardedBottleneck: the sharded path takes the slowest
// device's compute as the makespan and adds the collectives once. A
// flat kernel model prices graphs by op/kernel count, so the 26-table
// DLRM_MLPerf shard is the bottleneck next to the 8-table default.
func TestPredictShardedBottleneck(t *testing.T) {
	p := flatPredictor(5)
	small := dlrmGraph(t, 512)
	big := builtGraph(t, models.NameDLRMMLPerf, 512)

	single, err := p.Predict(big)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := p.PredictSharded([]*graph.Graph{small, big}, 2_000_000, 4<<20, NVLinkCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.PerDeviceE2E) != 2 {
		t.Fatalf("per-device breakdown = %v", mp.PerDeviceE2E)
	}
	if mp.PerDeviceE2E[1] <= mp.PerDeviceE2E[0] {
		t.Fatalf("bigger shard not slower: %v", mp.PerDeviceE2E)
	}
	wantE2E := single.E2E + mp.AllReduceUs + mp.AllToAllUs
	if mp.E2E != wantE2E {
		t.Errorf("E2E = %v, want bottleneck %v + collectives = %v", mp.E2E, single.E2E, wantE2E)
	}
	if se := mp.ScalingEfficiency; se <= 0 || se >= 1 {
		t.Errorf("scaling efficiency = %v, want in (0,1)", se)
	}

	// One graph degenerates to a plain single-device prediction.
	one, err := p.PredictSharded([]*graph.Graph{big}, 2_000_000, 4<<20, NVLinkCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if one.E2E != single.E2E || one.ScalingEfficiency != 1 {
		t.Errorf("single-graph sharded prediction = %+v, want plain %v", one, single.E2E)
	}
	if _, err := p.PredictSharded(nil, 1, 1, NVLinkCommModel()); err == nil {
		t.Error("empty graph list accepted")
	}
}

// TestZeroPayloadCollectivesNotLaunched: a pure data-parallel workload
// with no embedding exchange must not be charged the all-to-all's
// launch latency — a collective that never runs costs nothing.
func TestZeroPayloadCollectivesNotLaunched(t *testing.T) {
	p := flatPredictor(5)
	g := builtGraph(t, models.NameResNet50, 16)
	mp, err := p.PredictSharded([]*graph.Graph{g, g}, 25_000_000, 0, NVLinkCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if mp.AllToAllUs != 0 {
		t.Errorf("phantom all-to-all charged: %v", mp.AllToAllUs)
	}
	if mp.AllReduceUs <= 0 {
		t.Errorf("dense all-reduce missing: %v", mp.AllReduceUs)
	}
	dp, err := p.PredictSharded(replicas(g, 2), 0, 0, NVLinkCommModel())
	if err != nil {
		t.Fatal(err)
	}
	if dp.AllReduceUs != 0 || dp.AllToAllUs != 0 || dp.ScalingEfficiency != 1 {
		t.Errorf("zero payloads priced: %+v", dp)
	}
}

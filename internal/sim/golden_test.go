package sim_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/trace"
)

// The golden oracle: every bit the simulator emits — each event's
// times and attribution, as trace.Record writes them, the iteration
// spans and the two summary means — folded into one FNV-64a digest per
// device × workload × profiled run at a fixed seed. The constants were
// recorded from the tree before the first-touch pipeline was made
// single-pass; any change to the order or count of RNG draws, or to the
// floating-point arithmetic around them, moves a digest.

const (
	goldenSeed   = 20240601
	goldenBatch  = 128
	goldenWarmup = 2
	goldenIters  = 6
)

var goldenWorkloads = []string{
	models.NameDLRMDefault, models.NameDLRMMLPerf, models.NameDLRMDDP,
	models.NameResNet50, models.NameInceptionV3, models.NameTransformer,
}

func goldenConfig(p hw.Platform, workload string, profiled bool) sim.Config {
	return sim.Config{
		Platform: p, Seed: goldenSeed, Warmup: goldenWarmup, Iters: goldenIters,
		Profile: profiled, Workload: workload,
	}
}

type digest struct{ h hash.Hash64 }

func (d digest) u64(v uint64)  { d.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
func (d digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d digest) str(s string)  { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }

func digestResult(tr *trace.Trace, r *sim.Result) uint64 {
	d := digest{fnv.New64a()}
	d.u64(uint64(tr.Iters))
	d.u64(uint64(len(tr.Events)))
	for i := range tr.Events {
		e := &tr.Events[i]
		d.u64(uint64(e.Kind))
		d.str(e.Name)
		d.str(e.Op)
		d.f64(e.Start)
		d.f64(e.End)
		d.u64(uint64(e.Iter))
		d.u64(uint64(e.Node))
		d.u64(0) // the digests were recorded with a stream field, always 0
		d.u64(uint64(e.Seq))
	}
	for _, s := range r.IterSpans {
		d.f64(s[0])
		d.f64(s[1])
	}
	d.f64(r.MeanIterTime)
	d.f64(r.MeanActiveTime)
	return d.h.Sum64()
}

var goldenDigests = map[string]uint64{
	"V100/DLRM_default/profiled=false":     0xa7b1102fe1705f3e,
	"V100/DLRM_default/profiled=true":      0x0e1201d0f8a0335c,
	"V100/DLRM_MLPerf/profiled=false":      0x2b7beed0e3c0e61b,
	"V100/DLRM_MLPerf/profiled=true":       0x104f7de642df0d1f,
	"V100/DLRM_DDP/profiled=false":         0xb5d0eff85535893e,
	"V100/DLRM_DDP/profiled=true":          0xdc6d875a47d7b1da,
	"V100/resnet50/profiled=false":         0x7f063c8bfae9ff5d,
	"V100/resnet50/profiled=true":          0xcf437ae9fc1d8ea1,
	"V100/inception_v3/profiled=false":     0xe75792022b747b01,
	"V100/inception_v3/profiled=true":      0x98c3d4e109938f31,
	"V100/Transformer/profiled=false":      0x4d82cddcf00520a7,
	"V100/Transformer/profiled=true":       0x5d707d7e5f29887a,
	"TITAN Xp/DLRM_default/profiled=false": 0xe4649ed518679c5d,
	"TITAN Xp/DLRM_default/profiled=true":  0x3f9dcf58611609ec,
	"TITAN Xp/DLRM_MLPerf/profiled=false":  0x034df5820ae9f402,
	"TITAN Xp/DLRM_MLPerf/profiled=true":   0x06eee0f9d0a2265f,
	"TITAN Xp/DLRM_DDP/profiled=false":     0x09b8171204e52e63,
	"TITAN Xp/DLRM_DDP/profiled=true":      0x1f70f299443b9fae,
	"TITAN Xp/resnet50/profiled=false":     0x091fd6f1337161ae,
	"TITAN Xp/resnet50/profiled=true":      0x37995161044d8999,
	"TITAN Xp/inception_v3/profiled=false": 0xd86cf9dad852209f,
	"TITAN Xp/inception_v3/profiled=true":  0x8f2c0ba14ced29c2,
	"TITAN Xp/Transformer/profiled=false":  0xf5599371c8de3cb5,
	"TITAN Xp/Transformer/profiled=true":   0x92958c4a4efe61cf,
	"P100/DLRM_default/profiled=false":     0x2e98010d3adb19d4,
	"P100/DLRM_default/profiled=true":      0xc7d13c93569855d7,
	"P100/DLRM_MLPerf/profiled=false":      0x8cb8b6de0b65617c,
	"P100/DLRM_MLPerf/profiled=true":       0xbd195662fd200f8c,
	"P100/DLRM_DDP/profiled=false":         0x77463c0fae148538,
	"P100/DLRM_DDP/profiled=true":          0x5b1ff60748b8ce7a,
	"P100/resnet50/profiled=false":         0x15d4b0d345eabf7e,
	"P100/resnet50/profiled=true":          0xfecfcc5c9edbf248,
	"P100/inception_v3/profiled=false":     0x772830446422080a,
	"P100/inception_v3/profiled=true":      0xcd86999c7cfcff50,
	"P100/Transformer/profiled=false":      0x28d0f9a3f6424d1c,
	"P100/Transformer/profiled=true":       0xfaae6ba8bcf6e1d6,
}

func TestGoldenTraces(t *testing.T) {
	for _, p := range hw.All() {
		for _, w := range goldenWorkloads {
			m, err := models.Build(w, goldenBatch)
			if err != nil {
				t.Fatal(err)
			}
			for _, profiled := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/profiled=%t", p.GPU.Name, w, profiled)
				got := digestResult(trace.Record(m.Graph, goldenConfig(p, w, profiled)))
				if want := goldenDigests[key]; got != want {
					t.Errorf("%q: %#016x, // golden is %#016x", key, got, want)
				}
			}
		}
	}
}

package overhead

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
	"dlrmperf/internal/sim"
	"dlrmperf/internal/trace"
)

// The golden oracle: FNV-64a of FromTrace(...).Marshal() for the same
// device × workload × profiled traces internal/sim pins, recorded from
// the tree before extraction was made single-pass. Defaults is left out
// of the digest: it pooled samples in map order there, so its last
// bits differed from call to call (TestFinishDeterministic pins it now).

var goldenWorkloads = []string{
	models.NameDLRMDefault, models.NameDLRMMLPerf, models.NameDLRMDDP,
	models.NameResNet50, models.NameInceptionV3, models.NameTransformer,
}

func goldenTrace(t testing.TB, p hw.Platform, workload string, profiled bool) *trace.Trace {
	t.Helper()
	m, err := models.Build(workload, 128)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.Record(m.Graph, sim.Config{
		Platform: p, Seed: 20240601, Warmup: 2, Iters: 6,
		Profile: profiled, Workload: workload,
	})
	return tr
}

var goldenDigests = map[string]uint64{
	"V100/DLRM_default/profiled=false":     0x207035dd8182cb7a,
	"V100/DLRM_default/profiled=true":      0xa940ba25ebf2f73b,
	"V100/DLRM_MLPerf/profiled=false":      0xd8328dc3a84d72fb,
	"V100/DLRM_MLPerf/profiled=true":       0xef338048d12ca0bf,
	"V100/DLRM_DDP/profiled=false":         0x3a235260870fe847,
	"V100/DLRM_DDP/profiled=true":          0x7a2460b3f549826c,
	"V100/resnet50/profiled=false":         0xdda0b0603112e67a,
	"V100/resnet50/profiled=true":          0x4a36219040302873,
	"V100/inception_v3/profiled=false":     0x482ce35e2bb59988,
	"V100/inception_v3/profiled=true":      0xcbe44f469975ec32,
	"V100/Transformer/profiled=false":      0xbc6fcd8f040c22b4,
	"V100/Transformer/profiled=true":       0x57f7df2bbb9efc0a,
	"TITAN Xp/DLRM_default/profiled=false": 0x2be65bc9d814b2f5,
	"TITAN Xp/DLRM_default/profiled=true":  0x1df449507c05d757,
	"TITAN Xp/DLRM_MLPerf/profiled=false":  0xf82d7b3d7fbfc741,
	"TITAN Xp/DLRM_MLPerf/profiled=true":   0xb5e7830e0e638650,
	"TITAN Xp/DLRM_DDP/profiled=false":     0x4ba31107b3d1a276,
	"TITAN Xp/DLRM_DDP/profiled=true":      0x81152ff0400efb4c,
	"TITAN Xp/resnet50/profiled=false":     0xb1f5b0bf04382a99,
	"TITAN Xp/resnet50/profiled=true":      0xc7762aa241c406ba,
	"TITAN Xp/inception_v3/profiled=false": 0x4155e67894f4387b,
	"TITAN Xp/inception_v3/profiled=true":  0x4c8f75847368ffe2,
	"TITAN Xp/Transformer/profiled=false":  0x4128d299c873ae11,
	"TITAN Xp/Transformer/profiled=true":   0xbe25484d910efdc3,
	"P100/DLRM_default/profiled=false":     0xa55b4696ae77bcf9,
	"P100/DLRM_default/profiled=true":      0x765241de3b59343f,
	"P100/DLRM_MLPerf/profiled=false":      0x439107ac77292a60,
	"P100/DLRM_MLPerf/profiled=true":       0x96d5533a319eefec,
	"P100/DLRM_DDP/profiled=false":         0xb8d21c4c3be7dfe3,
	"P100/DLRM_DDP/profiled=true":          0xb2d9d694e272419c,
	"P100/resnet50/profiled=false":         0x95e1e135be56edb0,
	"P100/resnet50/profiled=true":          0xb7e1106208a534fd,
	"P100/inception_v3/profiled=false":     0x6e80e1f40dd57ccb,
	"P100/inception_v3/profiled=true":      0xccf9c4cc6e23afc5,
	"P100/Transformer/profiled=false":      0xa2c90364aa71083f,
	"P100/Transformer/profiled=true":       0x2c5837468384c1c1,
}

func TestGoldenDatabases(t *testing.T) {
	for _, p := range hw.All() {
		for _, w := range goldenWorkloads {
			for _, profiled := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/profiled=%t", p.GPU.Name, w, profiled)
				db := FromTrace(goldenTrace(t, p, w, profiled))
				db.Defaults = [3]Stats{}
				raw, err := db.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write(raw)
				if got, want := h.Sum64(), goldenDigests[key]; got != want {
					t.Errorf("%q: %#016x, // golden is %#016x", key, got, want)
				}
			}
		}
	}
}

// TestFinishDeterministic pins the bug the golden digests had to leave
// out: Defaults pooled every op's samples in map-iteration order, so
// its mean and std changed in the last bits from one rebuild to the
// next. Rebuilding from the same traces must now give == databases.
func TestFinishDeterministic(t *testing.T) {
	a := goldenTrace(t, hw.V100Platform(), models.NameDLRMDefault, true)
	b := goldenTrace(t, hw.V100Platform(), models.NameDLRMDDP, true)
	for name, build := range map[string]func() *DB{
		"FromTrace": func() *DB { return FromTrace(a) },
		"Shared":    func() *DB { return Shared([]*trace.Trace{a, b}) },
	} {
		want := build()
		if want.Defaults[0].N == 0 {
			t.Fatalf("%s: empty defaults", name)
		}
		for i := 0; i < 20; i++ {
			if got := build(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: rebuild %d differs: defaults %+v, want %+v", name, i, got.Defaults, want.Defaults)
			}
		}
	}
}

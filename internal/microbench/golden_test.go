package microbench

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
)

// The golden oracle for the calibration path: one CollectKind dataset
// per kernel kind on each device, every shape and every averaged time
// folded bit for bit into an FNV-64a digest. Recorded from the tree
// before RunAveraged hoisted BaseTime out of its repeat loop.
var goldenDigests = map[string]uint64{
	"V100/GEMM":            0x1948496bf2a86103,
	"V100/EL-F":            0xe031bd493786e40a,
	"V100/EL-B":            0x0f8be93a0b441238,
	"V100/concat":          0xc26569faacb4212d,
	"V100/memcpy":          0x0ac181159f47d450,
	"V100/transpose":       0x0070ef6142d4ae84,
	"V100/tril-F":          0x4683e7ae238adc5d,
	"V100/tril-B":          0x9253817e8d200338,
	"V100/elementwise":     0x727d5a6a5f6a5e48,
	"V100/conv":            0x873735a0b5af2bb2,
	"V100/batchnorm":       0x5641da16d8f872ac,
	"TITAN Xp/GEMM":        0xc3aacee72edff0e3,
	"TITAN Xp/EL-F":        0x3a8b0438aa59e476,
	"TITAN Xp/EL-B":        0x25d2573228ffa42b,
	"TITAN Xp/concat":      0x63e36132c54645af,
	"TITAN Xp/memcpy":      0x5a4a409984664ca0,
	"TITAN Xp/transpose":   0x43b82f60afaf16bd,
	"TITAN Xp/tril-F":      0x21778ca4e2e61682,
	"TITAN Xp/tril-B":      0x1811ea6ac7b17f8d,
	"TITAN Xp/elementwise": 0xd277596b1dedcc3c,
	"TITAN Xp/conv":        0xc4b595efa62bfa1f,
	"TITAN Xp/batchnorm":   0xdb45d1721855ceb7,
	"P100/GEMM":            0xa1f91d612dec4393,
	"P100/EL-F":            0x6f56d84ef7113837,
	"P100/EL-B":            0x2b2e033fae29c72b,
	"P100/concat":          0xb07d78770db9a021,
	"P100/memcpy":          0x5ac6e7fadad5151c,
	"P100/transpose":       0x8c7117797baba001,
	"P100/tril-F":          0xbc8969abe11288f4,
	"P100/tril-B":          0xf495004e427320b3,
	"P100/elementwise":     0x1a5b88e76da8e1eb,
	"P100/conv":            0x0e14449ab223f354,
	"P100/batchnorm":       0x182e942cfcadebae,
}

func TestGoldenDatasets(t *testing.T) {
	for _, p := range hw.All() {
		for _, kind := range kernels.Kinds() {
			key := p.GPU.Name + "/" + kind.String()
			h := fnv.New64a()
			for _, s := range CollectKind(p.GPU, kind, 24, 20240601).Samples {
				h.Write([]byte(s.Kernel.String()))
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(s.Time)))
			}
			if got, want := h.Sum64(), goldenDigests[key]; got != want {
				t.Errorf("%q: %#016x, // golden is %#016x", key, got, want)
			}
		}
	}
}

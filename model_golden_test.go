package dlrmperf

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/models"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/xrand"
)

// The model-side golden oracle: the E2E, active and CPU-time bits of the
// fast tier's prediction for every cell TestFastTierFidelity runs at
// seed 2022 (3 devices × 6 workloads × 2 batches), each predicted with
// the overhead database the cell collects. The measured-side goldens
// (sim, overhead, microbench) cannot see a calibrated model move; these
// can, to the last bit. Recorded from the tree before kernel models
// became one perfmodel.Model value. A change that moves one is a model
// change: say so, and list old → new.
var modelGoldenDigests = map[string]uint64{
	"P100/DLRM_DDP/2048":         0x890bd18271ce44b6,
	"P100/DLRM_DDP/512":          0xefe588b4807a91ca,
	"P100/DLRM_MLPerf/2048":      0x49df6a753d6a348b,
	"P100/DLRM_MLPerf/512":       0xa5c44f36c92c286f,
	"P100/DLRM_default/2048":     0xb43434aa03ef7f9d,
	"P100/DLRM_default/512":      0x2a93aee03bc0b1d2,
	"P100/Transformer/256":       0xa84bee4398b7b45d,
	"P100/Transformer/64":        0xcc61e6973f99a0b7,
	"P100/inception_v3/16":       0xb6fa176db1b8f259,
	"P100/inception_v3/64":       0xd9897f32fcbaa412,
	"P100/resnet50/16":           0xedbdc4bd3bf029d0,
	"P100/resnet50/64":           0xdb027861194c81a6,
	"TITAN Xp/DLRM_DDP/2048":     0x648f6dd82e834faf,
	"TITAN Xp/DLRM_DDP/512":      0xa3edc8644c30e651,
	"TITAN Xp/DLRM_MLPerf/2048":  0x0d43dca52632ac7d,
	"TITAN Xp/DLRM_MLPerf/512":   0x5a2adef4ccf56e1f,
	"TITAN Xp/DLRM_default/2048": 0x30e233a0bfcf7fbd,
	"TITAN Xp/DLRM_default/512":  0x69a1597a1376cb79,
	"TITAN Xp/Transformer/256":   0xbd6e26cd73362131,
	"TITAN Xp/Transformer/64":    0x7f6eab6f03df63bd,
	"TITAN Xp/inception_v3/16":   0xc4488c77b664b189,
	"TITAN Xp/inception_v3/64":   0xe28989180395e3ef,
	"TITAN Xp/resnet50/16":       0xd55a6b7925d1c4c5,
	"TITAN Xp/resnet50/64":       0x8dd00aa6e1a23238,
	"V100/DLRM_DDP/2048":         0x24da3a9731b5ceb8,
	"V100/DLRM_DDP/512":          0x0df42c332af7f3b6,
	"V100/DLRM_MLPerf/2048":      0x2883beb99cc2bb1f,
	"V100/DLRM_MLPerf/512":       0x815ef712be987261,
	"V100/DLRM_default/2048":     0x92955b196cefd8c8,
	"V100/DLRM_default/512":      0x92423c6a8aab753f,
	"V100/Transformer/256":       0x34500a3f88fc1310,
	"V100/Transformer/64":        0xefe1b39f98e0e216,
	"V100/inception_v3/16":       0x17df1b7de26fcc80,
	"V100/inception_v3/64":       0x545246b5b67e5fed,
	"V100/resnet50/16":           0x598e905a14d94b6e,
	"V100/resnet50/64":           0x9f3a45b9177126c8,
}

// modelGoldenSeed is the model seed of the golden cells.
const modelGoldenSeed = 2022

// predictionDigest folds a prediction's three numbers into an FNV-64a
// digest, bit for bit.
func predictionDigest(p Prediction) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, v := range []float64{p.E2EUs, p.ActiveUs, p.CPUUs} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h.Write(buf)
	return h.Sum64()
}

func TestModelGoldenPredictions(t *testing.T) {
	seed := uint64(modelGoldenSeed)
	got := map[string]uint64{}
	for _, device := range Devices() {
		pipe, err := NewPipeline(device, WithSeed(seed), WithCalibration(FastCalibConfig(seed, 0).Calib))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Workloads() {
			for _, batch := range fidelityBatches(name) {
				w, err := NewModel(name, batch)
				if err != nil {
					t.Fatal(err)
				}
				db, err := pipe.CollectOverheads(w, seed+2)
				if err != nil {
					t.Fatal(err)
				}
				pred, err := pipe.Predict(w, db)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/%s/%d", device, name, batch)] = predictionDigest(pred)
			}
		}
	}
	if len(got) != 36 || len(modelGoldenDigests) != len(got) {
		t.Errorf("%d cells, %d digests, want 36", len(got), len(modelGoldenDigests))
	}
	for key, d := range got {
		if want := modelGoldenDigests[key]; d != want {
			t.Errorf("%q: %#016x, // golden is %#016x", key, d, want)
		}
	}
}

// calibrationGoldenDigests pins the fast tier's calibration on every
// device at two model seeds: the FNV-64a digest of the registry as it
// serializes plus the Table IV rows (json.Marshal of Calibration.Evals).
// Recorded at workers 1, from the tree before a calibration dataset held
// each kernel once; every pool size must reproduce it. A change that
// moves one is a model change: say so, and list old → new.
var calibrationGoldenDigests = map[string]uint64{
	"V100/2022":     0x8be37aa73e5e927a,
	"V100/7":        0x73407b1942b623a0,
	"TITAN Xp/2022": 0x703af44930a1d8d0,
	"TITAN Xp/7":    0x74bb56c2f14a057f,
	"P100/2022":     0xd5c8ad211bc97cb3,
	"P100/7":        0x7abbb37cb6a9bb81,
}

// calibrationDigest folds a calibration's registry and Table IV rows
// into an FNV-64a digest.
func calibrationDigest(t *testing.T, cal *perfmodel.Calibration) uint64 {
	t.Helper()
	w, err := cal.Registry.Wire()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	evals, err := json.Marshal(cal.Evals)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(reg)
	h.Write(evals)
	return h.Sum64()
}

func TestCalibrationGoldenDigests(t *testing.T) {
	workers := slices.Compact(slices.Sorted(slices.Values([]int{1, 2, runtime.GOMAXPROCS(0)})))
	got := map[string]uint64{}
	for _, p := range hw.All() {
		for _, seed := range []uint64{modelGoldenSeed, 7} {
			key := fmt.Sprintf("%s/%d", p.GPU.Name, seed)
			opt := FastCalibConfig(seed, 0).Calib
			for _, n := range workers {
				d := calibrationDigest(t, perfmodel.Calibrate(p.GPU, seed, opt, n))
				if n == 1 {
					got[key] = d
				} else if d != got[key] {
					t.Errorf("%q at workers %d: %#016x, at workers 1 %#016x", key, n, d, got[key])
				}
			}
		}
	}
	if len(calibrationGoldenDigests) != len(got) {
		t.Errorf("%d calibrations, %d digests", len(got), len(calibrationGoldenDigests))
	}
	for key, d := range got {
		if want := calibrationGoldenDigests[key]; d != want {
			t.Errorf("%q: %#016x, // golden is %#016x", key, d, want)
		}
	}
}

// kernelGoldenDigests pins the kernel arithmetic every model reads, per
// device: each kernel's String, FLOPs, Bytes, AppendFeatures and the
// device's BaseTime, over a microbenchmark sweep of every kind (keyed
// by the kind) and every kernel of each workload family at batch 64
// (keyed by the family). Recorded with calibrationGoldenDigests. A
// change that moves one is a model change: say so, and list old → new.
var kernelGoldenDigests = map[string]uint64{
	"V100/GEMM":             0xa1960a57c5e7b7dc,
	"V100/EL-F":             0xca7c6cee75ec5b14,
	"V100/EL-B":             0xe40069cc8d358e5e,
	"V100/concat":           0x81659370fd63d686,
	"V100/memcpy":           0x8aeef414d577e663,
	"V100/transpose":        0x9c9acbc6ad24c57c,
	"V100/tril-F":           0x6693b163c261b5e4,
	"V100/tril-B":           0x632dd77955a4112d,
	"V100/elementwise":      0x3d35b5aed53cd62d,
	"V100/conv":             0xeb91fe3af27242d9,
	"V100/batchnorm":        0xd360265680df3873,
	"V100/DLRM_default":     0x439cf1e13cbd7787,
	"V100/DLRM_MLPerf":      0x7eaa7577c5864112,
	"V100/DLRM_DDP":         0x439e0a7866cf8dd3,
	"V100/resnet50":         0x783f28aca53a2aba,
	"V100/inception_v3":     0x74e67f8b8e0bd42a,
	"V100/Transformer":      0x1b0497abddd1a315,
	"TITAN Xp/GEMM":         0x3c3eb43902542743,
	"TITAN Xp/EL-F":         0x1cd8a88e66a4a62d,
	"TITAN Xp/EL-B":         0x5ea30202f43cf130,
	"TITAN Xp/concat":       0x5efaf977e178864f,
	"TITAN Xp/memcpy":       0x13d1d30019c99ebc,
	"TITAN Xp/transpose":    0xd58be62eaa55e741,
	"TITAN Xp/tril-F":       0x3a0e084d683aafcf,
	"TITAN Xp/tril-B":       0xb1faf2b072204783,
	"TITAN Xp/elementwise":  0x3f08477069c24c92,
	"TITAN Xp/conv":         0xe7dfb0dfacb68be8,
	"TITAN Xp/batchnorm":    0xadf1990535dc934b,
	"TITAN Xp/DLRM_default": 0x8d1098afbe107f1e,
	"TITAN Xp/DLRM_MLPerf":  0x5a3a335da4bb5808,
	"TITAN Xp/DLRM_DDP":     0xca7740585da73643,
	"TITAN Xp/resnet50":     0x416c3925f481a7c0,
	"TITAN Xp/inception_v3": 0x03d512294a3323b8,
	"TITAN Xp/Transformer":  0xb0bb73d8b367f880,
	"P100/GEMM":             0xaab21d8cf1f95d18,
	"P100/EL-F":             0x25a3301480ab0622,
	"P100/EL-B":             0xa8f0fbee101aa268,
	"P100/concat":           0xaa9770646df8dd16,
	"P100/memcpy":           0xdc7803df55a85bc6,
	"P100/transpose":        0x09586a4326ac844a,
	"P100/tril-F":           0xd43ddbb9e0633ff2,
	"P100/tril-B":           0x4f77b4d81d8e0232,
	"P100/elementwise":      0xd3cdcc89cd3c8f8d,
	"P100/conv":             0xfdf6dcc05f5fe3c1,
	"P100/batchnorm":        0x659eb0a4e7777f70,
	"P100/DLRM_default":     0x6c27e14870a5a6ae,
	"P100/DLRM_MLPerf":      0xb54a208d2f70b1d9,
	"P100/DLRM_DDP":         0x7de0e0933c5071a0,
	"P100/resnet50":         0x0d515a314bb94de2,
	"P100/inception_v3":     0x6019f810952d9622,
	"P100/Transformer":      0xa3d4bf71dff02534,
}

// kernelGoldenSeed seeds the sweep kernelGoldenDigests covers.
const kernelGoldenSeed = 20240601

// kernelDigest folds every kernel of ks, as dev prices it, into an
// FNV-64a digest, bit for bit.
func kernelDigest(dev *kernels.Device, ks []kernels.Kernel) uint64 {
	h := fnv.New64a()
	var buf []byte
	var feats []float64
	for i := range ks {
		k := &ks[i]
		read, write := k.Bytes()
		feats = kernels.AppendFeatures(feats[:0], k)
		buf = append(buf[:0], k.String()...)
		for _, v := range append(feats, k.FLOPs(), read, write, dev.BaseTime(k)) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

func TestKernelArithmeticGoldenDigests(t *testing.T) {
	sources := map[string][]kernels.Kernel{}
	sizes := microbench.DefaultSweepSizes()
	for _, kind := range kernels.Kinds() {
		n := cmp.Or(sizes[kind], 400)
		sources[kind.String()] = microbench.GenerateKernels(kind, n, xrand.New(kernelGoldenSeed))
	}
	for _, name := range Workloads() {
		m, err := models.Build(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		var ks []kernels.Kernel
		for _, n := range m.Graph.Nodes {
			ks = append(ks, m.Graph.NodeKernels(n)...)
		}
		sources[name] = ks
	}
	got := map[string]uint64{}
	for _, p := range hw.All() {
		dev := kernels.NewDevice(p.GPU, kernelGoldenSeed)
		for src, ks := range sources {
			got[p.GPU.Name+"/"+src] = kernelDigest(dev, ks)
		}
	}
	if len(kernelGoldenDigests) != len(got) {
		t.Errorf("%d kernel sets, %d digests", len(got), len(kernelGoldenDigests))
	}
	for key, d := range got {
		if want := kernelGoldenDigests[key]; d != want {
			t.Errorf("%q: %#016x, // golden is %#016x", key, d, want)
		}
	}
}

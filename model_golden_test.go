package dlrmperf

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
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

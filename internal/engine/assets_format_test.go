package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/models"
	"dlrmperf/internal/xrand"
)

// TestAssetFormatVersionGuard pins the export format contract:
// SaveAssets stamps the current version, a round trip loads cleanly,
// and a blob from a different format version is rejected with a typed
// error naming both versions instead of being half-applied.
func TestAssetFormatVersionGuard(t *testing.T) {
	a := New(tinyOptions(7))
	if res := a.Predict(NewRequest(hw.V100, models.NameDLRMDefault, 512)); res.Err != nil {
		t.Fatal(res.Err)
	}
	data, err := a.SaveAssets(hw.V100)
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil || envelope.Version != AssetFormatVersion {
		t.Fatalf("export version = %d (%v), want %d", envelope.Version, err, AssetFormatVersion)
	}

	// Clean round trip at the current version. The export is compact,
	// and an indented one, as exports were written before, loads too.
	if !json.Valid(data) || bytes.ContainsRune(data, '\n') {
		t.Fatal("export is not one line of JSON")
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, data, "", " "); err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{data, indented.Bytes()} {
		if device, err := New(tinyOptions(7)).LoadAssets(blob); err != nil || device != hw.V100 {
			t.Fatalf("round trip = %q, %v", device, err)
		}
	}

	// A past or future version is refused with the typed error: version
	// 1, whose models were a {type, data} union, as well as 99.
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	var fe *AssetFormatError
	for _, v := range []int{1, 99} {
		wire["version"] = json.RawMessage(strconv.Itoa(v))
		bumped, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(tinyOptions(7)).LoadAssets(bumped)
		if !errors.As(err, &fe) || fe.Got != v || fe.Want != AssetFormatVersion {
			t.Fatalf("version-mismatch err = %v, want AssetFormatError{Got:%d, Want:%d}", err, v, AssetFormatVersion)
		}
	}

	// Pre-versioning blobs carry no version field and decode it as 0 —
	// also a mismatch, not a silent acceptance.
	delete(wire, "version")
	legacy, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tinyOptions(7)).LoadAssets(legacy); !errors.As(err, &fe) || fe.Got != 0 {
		t.Fatalf("versionless blob err = %v, want AssetFormatError{Got:0}", err)
	}
}

// TestLoadAssetsCorruptedBlob: bytes that are not an asset export at
// all surface the typed format error (Got -1: it never parsed), and
// the engine stays usable.
func TestLoadAssetsCorruptedBlob(t *testing.T) {
	e := New(tinyOptions(7))
	for _, blob := range [][]byte{
		[]byte("not json at all"),
		[]byte(`{"version":`),
		{0xff, 0xfe, 0x00},
	} {
		_, err := e.LoadAssets(blob)
		var fe *AssetFormatError
		if !errors.As(err, &fe) || fe.Got != -1 {
			t.Fatalf("corrupted blob %q err = %v, want AssetFormatError{Got:-1}", blob, err)
		}
	}
	if res := e.Predict(NewRequest(hw.V100, models.NameDLRMDefault, 256)); res.Err != nil {
		t.Fatalf("engine unusable after rejected loads: %v", res.Err)
	}
}

// assetState is what an asset install can change in an engine: the
// calibrated devices, every device's asset epoch and calibration count,
// and each store class's resident entries.
type assetState struct {
	devices  []string
	epochs   map[string]uint64
	calRuns  map[string]int
	resident map[string]int
}

func snapshot(e *Engine) assetState {
	st := assetState{e.CalibratedDevices(), map[string]uint64{}, map[string]int{}, map[string]int{}}
	for _, d := range hw.Names() {
		st.epochs[d], st.calRuns[d] = e.AssetsEpoch(d), e.CalibrationRuns(d)
	}
	for _, c := range e.AssetStats().Classes {
		st.resident[c.Class] = c.Resident
	}
	return st
}

// setRegistryDevice rewrites the device name inside an export's registry.
func setRegistryDevice(t *testing.T, wire map[string]json.RawMessage, device string) {
	t.Helper()
	var reg map[string]json.RawMessage
	if err := json.Unmarshal(wire["registry"], &reg); err != nil {
		t.Fatal(err)
	}
	reg["device"], _ = json.Marshal(device)
	wire["registry"], _ = json.Marshal(reg)
}

// setRegistryModel files model under kind inside an export's registry.
func setRegistryModel(t testing.TB, wire map[string]json.RawMessage, kind, model string) {
	t.Helper()
	var reg map[string]json.RawMessage
	var byKind map[string]json.RawMessage
	if err := json.Unmarshal(wire["registry"], &reg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(reg["models"], &byKind); err != nil {
		t.Fatal(err)
	}
	byKind[kind] = json.RawMessage(model)
	reg["models"], _ = json.Marshal(byKind)
	wire["registry"], _ = json.Marshal(reg)
}

// elModel is the registry entry of an enhanced embedding heuristic
// with V100's SM count and L2 size.
const elModel = `{"form":"el","name":"EL","dram_bw":9e5,"l2_bw":2e6,"enhanced":true,"num_sms":80,"l2_size":6291456}`

// mlpModel is the registry entry of a one-net MLP model of the given
// layer sizes.
func mlpModel(t testing.TB, sizes ...int) string {
	t.Helper()
	net, err := json.Marshal(mlp.NewNet(sizes, xrand.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	return `{"form":"mlp","name":"M","base_peak":1e7,"base_bw":9e5,"nets":[` + string(net) + `]}`
}

// zeroFeatStd sets every feature std of the first GEMM network in an
// export's registry to zero, so that network divides by zero on every
// input.
func zeroFeatStd(t testing.TB, wire map[string]json.RawMessage) {
	t.Helper()
	var reg, byKind, model, net map[string]json.RawMessage
	var nets []json.RawMessage
	var std []float64
	decode := func(data []byte, into any) {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatal(err)
		}
	}
	decode(wire["registry"], &reg)
	decode(reg["models"], &byKind)
	decode(byKind["GEMM"], &model)
	decode(model["nets"], &nets)
	decode(nets[0], &net)
	decode(net["feat_std"], &std)
	net["feat_std"], _ = json.Marshal(make([]float64, len(std)))
	nets[0], _ = json.Marshal(net)
	model["nets"], _ = json.Marshal(nets)
	gemm, _ := json.Marshal(model)
	setRegistryModel(t, wire, "GEMM", string(gemm))
}

// TestLoadAssetsRejectedInstallsNothing: a payload whose envelope
// parses but whose registry or any overhead database does not, or that
// names an unknown device, another device's registry, a registry
// missing a calibrated kind or one holding a model that cannot price
// its kind, is rejected whole — the engine holds
// exactly what it held before the call (no calibration, no epoch
// movement, nothing resident), so a corrupt blob POSTed to
// /v1/assets/install cannot leave a worker serving from it, and the
// device still calibrates normally afterwards.
func TestLoadAssetsRejectedInstallsNothing(t *testing.T) {
	src := New(tinyOptions(7))
	shared := NewRequest(hw.V100, models.NameDLRMDefault, 512)
	shared.Shared = true
	for _, req := range []Request{NewRequest(hw.V100, models.NameDLRMDefault, 512), shared} {
		if res := src.Predict(req); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	data, err := src.SaveAssets(hw.V100)
	if err != nil {
		t.Fatal(err)
	}
	nope := json.RawMessage(`"nope"`)
	corrupt := func(edit func(wire map[string]json.RawMessage)) []byte {
		var wire map[string]json.RawMessage
		if err := json.Unmarshal(data, &wire); err != nil {
			t.Fatal(err)
		}
		edit(wire)
		out, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	e := New(tinyOptions(7))
	before := snapshot(e)
	for _, tc := range []struct {
		name string
		edit func(wire map[string]json.RawMessage)
	}{
		{"one per-workload DB", func(wire map[string]json.RawMessage) {
			var dbs map[string]json.RawMessage
			if err := json.Unmarshal(wire["overheads"], &dbs); err != nil || len(dbs[models.NameDLRMDefault]) == 0 {
				t.Fatalf("export holds no %s overheads (%v)", models.NameDLRMDefault, err)
			}
			dbs[models.NameDLRMDefault] = nope
			wire["overheads"], _ = json.Marshal(dbs)
		}},
		{"the shared DB", func(wire map[string]json.RawMessage) {
			if len(wire["shared"]) == 0 {
				t.Fatal("export holds no shared overheads")
			}
			wire["shared"] = nope
		}},
		{"the registry", func(wire map[string]json.RawMessage) { wire["registry"] = nope }},
		{"an unknown device", func(wire map[string]json.RawMessage) {
			wire["device"] = json.RawMessage(`"no-such-gpu"`)
			setRegistryDevice(t, wire, "no-such-gpu")
		}},
		{"another device's registry", func(wire map[string]json.RawMessage) { setRegistryDevice(t, wire, hw.P100) }},
		{"a hollow registry", func(wire map[string]json.RawMessage) {
			wire["registry"] = json.RawMessage(`{"device":"` + hw.V100 + `","models":{}}`)
		}},
		{"an embedding heuristic filed under GEMM", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "GEMM", elModel)
		}},
		{"a concat roofline with no fields", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "concat", `{"form":"roofline","name":"concat"}`)
		}},
		{"a memcpy roofline with a negative latency", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "memcpy", `{"form":"roofline","name":"memcpy","bw":1e4,"lat":-1}`)
		}},
		{"an embedding heuristic with no SM count", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "EL-F", `{"form":"el","name":"EL-FH","dram_bw":9e5,"l2_bw":2e6,"enhanced":true,"l2_size":6291456}`)
		}},
		{"an enhanced embedding heuristic with no L2 bandwidth", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "EL-B", `{"form":"el","name":"EL-BH","dram_bw":9e5,"enhanced":true,"num_sms":80,"l2_size":6291456}`)
		}},
		{"a GEMM network with no baseline bandwidth", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "GEMM", strings.Replace(mlpModel(t, 4, 16, 1), `"base_bw":9e5`, `"base_bw":0`, 1))
		}},
		{"a version-1 model entry", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "concat", `{"type":"roofline","data":{"ModelName":"concat","BW":1e4,"Lat":5,"Peak":0}}`)
		}},
		{"a GEMM network of conv's input width", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "GEMM", mlpModel(t, 8, 16, 1))
		}},
		{"a GEMM network with two outputs", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "GEMM", mlpModel(t, 4, 16, 2))
		}},
		{"a GEMM network whose weights do not fit its sizes", func(wire map[string]json.RawMessage) {
			setRegistryModel(t, wire, "GEMM", `{"form":"mlp","name":"M","base_peak":1e7,"base_bw":9e5,"nets":[{"sizes":[4,1],"weights":[[1,2,3]],"biases":[[0]],"feat_mean":[0,0,0,0],"feat_std":[1,1,1,1]}]}`)
		}},
		{"a GEMM network with a zero feature std", func(wire map[string]json.RawMessage) { zeroFeatStd(t, wire) }},
	} {
		if _, err := e.LoadAssets(corrupt(tc.edit)); err == nil {
			t.Fatalf("payload with %s was accepted", tc.name)
		}
		if after := snapshot(e); !reflect.DeepEqual(after, before) {
			t.Fatalf("rejected payload (%s) changed the engine: %+v -> %+v", tc.name, before, after)
		}
	}
	if res := e.Predict(NewRequest(hw.V100, models.NameDLRMDefault, 512)); res.Err != nil {
		t.Fatalf("engine unusable after rejected loads: %v", res.Err)
	}
	if got := e.CalibrationRuns(hw.V100); got != 1 {
		t.Fatalf("calibration runs after rejected loads = %d, want 1", got)
	}
}

// TestAssetEpochsAndCalibratedDevices pins the replication hooks the
// cluster's asset vault rides: CalibratedDevices lists exactly the
// devices holding calibration assets, and the per-device epoch moves
// on every asset mutation — calibration and asset install alike — so
// a worker's heartbeat knows when a re-push is due.
func TestAssetEpochsAndCalibratedDevices(t *testing.T) {
	e := New(tinyOptions(7))
	if devs := e.CalibratedDevices(); len(devs) != 0 {
		t.Fatalf("fresh engine lists calibrated devices: %v", devs)
	}
	if got := e.AssetsEpoch(hw.V100); got != 0 {
		t.Fatalf("fresh epoch = %d, want 0", got)
	}

	if res := e.Predict(NewRequest(hw.V100, models.NameDLRMDefault, 512)); res.Err != nil {
		t.Fatal(res.Err)
	}
	if devs := e.CalibratedDevices(); len(devs) != 1 || devs[0] != hw.V100 {
		t.Fatalf("calibrated devices = %v, want [%s]", devs, hw.V100)
	}
	afterCalib := e.AssetsEpoch(hw.V100)
	if afterCalib == 0 {
		t.Fatal("calibration did not move the asset epoch")
	}

	// Installing exported assets into another engine moves THAT
	// engine's epoch (it now holds assets worth re-exporting), and the
	// device joins its calibrated set without a calibration run.
	data, err := e.SaveAssets(hw.V100)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(tinyOptions(7))
	if _, err := warm.LoadAssets(data); err != nil {
		t.Fatal(err)
	}
	if got := warm.AssetsEpoch(hw.V100); got == 0 {
		t.Fatal("asset install did not move the epoch")
	}
	if devs := warm.CalibratedDevices(); len(devs) != 1 || devs[0] != hw.V100 {
		t.Fatalf("warm engine calibrated devices = %v, want [%s]", devs, hw.V100)
	}
	if got := warm.CalibrationRuns(hw.V100); got != 0 {
		t.Fatalf("warm engine ran %d calibrations, want 0", got)
	}
	// Epochs are per-engine counters: untouched engines don't move.
	if got := e.AssetsEpoch(hw.V100); got != afterCalib {
		t.Fatalf("exporter epoch moved from %d to %d on a foreign install", afterCalib, got)
	}
}

// TestInstallRemoteResult pins the replication ingest of the
// pass-through cache: an installed row is a hit for the same scenario
// fingerprint without any fetch, it moves no hit/miss counters at
// install time, and installs are idempotent overwrites.
func TestInstallRemoteResult(t *testing.T) {
	e := New(Options{Seed: 1})
	req := NewRequest("V100", "DLRM_default", 512)
	e.InstallRemoteResult(req, "replicated")
	e.InstallRemoteResult(req, "replicated") // idempotent

	v, hit, err := e.RemoteResult(context.Background(), req, func() (any, error) {
		t.Fatal("fetch executed for an installed result")
		return nil, nil
	})
	if err != nil || !hit || v.(string) != "replicated" {
		t.Fatalf("RemoteResult after install = (%v, hit=%v, %v), want the installed value", v, hit, err)
	}
	// Exactly one counter moved, and only at read time: the hit above.
	if hits, misses := e.CacheStats(); hits != 1 || misses != 0 {
		t.Fatalf("cache counters = %d/%d hit/miss, want 1/0 (installs are silent)", hits, misses)
	}

	// A distinct fingerprint still fetches.
	other := NewRequest("V100", "DLRM_default", 1024)
	if _, hit, _ := e.RemoteResult(context.Background(), other, func() (any, error) { return "fetched", nil }); hit {
		t.Fatal("uninstalled fingerprint reported a hit")
	}
}

package engine

import (
	"encoding/json"
	"fmt"
	"strings"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/perfmodel"
)

// AssetFormatVersion is the SaveAssets wire-format version. Bump it
// whenever the serialized layout changes incompatibly; LoadAssets
// rejects any other version with *AssetFormatError, so a stale file or
// a truncated blob arriving over the wire (cluster asset migration)
// fails typed instead of installing silently-wrong calibration. Version
// 2 files each kernel model as one perfmodel.Model object; version 1
// wrapped it in a {type, data} union.
const AssetFormatVersion = 2

// AssetFormatError reports an asset payload this engine cannot load:
// either its version header names a different format (Got >= 0), or
// the bytes did not decode as an asset envelope of any version (Got ==
// -1, with the decode failure in Err).
type AssetFormatError struct {
	Got  int // version found in the blob; -1 when it did not decode
	Want int
	Err  error // underlying decode error, when decoding failed
}

func (e *AssetFormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("engine: asset blob is not a version-%d asset payload: %v", e.Want, e.Err)
	}
	return fmt.Sprintf("engine: asset format version %d, want %d (re-export with SaveAssets)", e.Got, e.Want)
}

func (e *AssetFormatError) Unwrap() error { return e.Err }

// wireAssets is the serialized per-device asset set: the calibrated
// kernel-model registry plus whatever overhead databases were collected
// — everything the paper's prediction track needs, so a fleet of
// prediction servers can warm-start from one calibration run. It holds
// the registry's wire form and the databases themselves, so a payload
// is encoded, and decoded, in one pass of encoding/json.
type wireAssets struct {
	Version   int                     `json:"version"`
	Device    string                  `json:"device"`
	Registry  perfmodel.WireRegistry  `json:"registry"`
	Overheads map[string]*overhead.DB `json:"overheads,omitempty"` // workload -> DB
	Shared    *overhead.DB            `json:"shared,omitempty"`
}

// SaveAssets serializes the device's portable assets as compact JSON,
// calibrating first if the device has not been calibrated yet. Overhead
// databases are included as collected so far; they rebuild lazily on
// load if absent.
func (e *Engine) SaveAssets(device string) ([]byte, error) {
	cal, err := e.Calibration(device)
	if err != nil {
		return nil, err
	}
	reg, err := cal.Registry.Wire()
	if err != nil {
		return nil, err
	}
	w := wireAssets{Version: AssetFormatVersion, Device: device, Registry: reg, Overheads: map[string]*overhead.DB{}}
	prefix := "db/" + device + "/"
	for k, v := range e.store.class(classOverheads).snapshot() {
		if strings.HasPrefix(k, prefix) {
			w.Overheads[strings.TrimPrefix(k, prefix)] = v.(*overhead.DB)
		}
		if k == "shared/"+device {
			w.Shared = v.(*overhead.DB)
		}
	}
	return json.Marshal(w)
}

// LoadAssets warm-starts the engine from a SaveAssets payload and
// returns the device it covers: subsequent predictions for that device
// skip calibration (and skip profiling for every included overhead DB).
// A payload that does not carry format version AssetFormatVersion —
// including pre-versioned files (version 0) and bytes that do not
// decode — is rejected with *AssetFormatError; one that names a device
// hw.ByName does not know, carries another device's registry or a
// registry missing any kind a calibration registers, or whose registry
// or any overhead database does not decode or fails its check (a
// model that cannot price its kind, a null database, one whose T1 gap
// has no sample or with a negative mean, std or count), with a plain
// error. Either way the whole payload is checked before anything
// installs, so a rejected payload leaves the engine as it was.
func (e *Engine) LoadAssets(data []byte) (string, error) {
	// The shared database is read raw, so that a null one is told from
	// none.
	var w struct {
		wireAssets
		Shared json.RawMessage `json:"shared"`
	}
	err := json.Unmarshal(data, &w)
	if w.Version != AssetFormatVersion {
		if err != nil {
			return "", &AssetFormatError{Got: -1, Want: AssetFormatVersion, Err: err}
		}
		return "", &AssetFormatError{Got: w.Version, Want: AssetFormatVersion}
	}
	if err != nil {
		return "", fmt.Errorf("engine: decoding %s assets: %w", w.Device, err)
	}
	if _, err := hw.ByName(w.Device); err != nil {
		return "", fmt.Errorf("engine: assets: %w", err)
	}
	reg, err := w.Registry.Registry()
	if err != nil {
		return "", fmt.Errorf("engine: loading registry: %w", err)
	}
	if reg.Device != w.Device {
		return "", fmt.Errorf("engine: %s assets carry a %q registry", w.Device, reg.Device)
	}
	if missing := reg.Missing(); len(missing) > 0 {
		return "", fmt.Errorf("engine: %s registry has no model for %v", w.Device, missing)
	}
	for name, db := range w.Overheads {
		if err := db.Check(); err != nil {
			return "", fmt.Errorf("engine: loading %s overheads: %w", name, err)
		}
	}
	var shared *overhead.DB
	if w.Shared != nil {
		if err := json.Unmarshal(w.Shared, &shared); err != nil {
			return "", fmt.Errorf("engine: loading shared overheads: %w", err)
		}
		if err := shared.Check(); err != nil {
			return "", fmt.Errorf("engine: loading shared overheads: %w", err)
		}
	}

	e.Install(w.Device, &perfmodel.Calibration{Registry: reg})
	for name, db := range w.Overheads {
		e.InstallOverheads(w.Device, name, db)
	}
	if shared != nil {
		e.store.class(classOverheads).put("shared/"+w.Device, shared, approxBytes(shared))
		e.bumpAssetEpoch(w.Device)
	}
	return w.Device, nil
}

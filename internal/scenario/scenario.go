// Package scenario is the workload-planning layer between the facade
// and the prediction engine: a Spec bundles *what* to predict (a model
// family, its embedding-table population, a batch size) with *how* to
// execute it (single device, or hybrid-parallel across N devices with a
// chosen interconnect), plus a deterministic fingerprint that keys
// result caches and memoized graphs.
//
// Named generators (criteo-like DLRM, uniform-table DLRM, the CNN
// families, and multi-GPU presets of each) live in a registry so
// services can accept scenario names over the wire; the greedy
// embedding-table sharding planner (sharding.go) turns a multi-device
// Spec into balanced per-device table shards.
//
// Fingerprints and canonical encodings are cache identities and
// cross-process routing keys, so the package is held to the
// deterministic analyzer: no wall clock, no global math/rand, no
// output in map order.
//
//lint:deterministic
package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"dlrmperf/internal/models"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/workload"
	"dlrmperf/internal/xrand"
)

// Comm model names accepted by Spec.Comm (case-insensitively). The
// empty string means CommNVLink. The mapping to alpha-beta parameters
// — and hence the authoritative name set — is predict.CommByName.
const (
	CommNVLink = "nvlink"
	CommPCIe   = "pcie"
)

// MaxDevices bounds a spec's execution width. A compile allocates per
// device (shards, views, the per-device step times a result keeps), so
// an unbounded width lets one request ask a worker for any amount of
// memory; every width in use is far below this.
const MaxDevices = 1024

// Spec is one fully-specified prediction scenario.
type Spec struct {
	// Name is the registry name that generated the spec ("" for ad-hoc
	// specs). It is informational only: identity is the Fingerprint.
	Name string `json:"name,omitempty"`
	// Workload is the model-family builder name (models.Build).
	Workload string `json:"workload"`
	// Batch is the global training batch size. Multi-device scenarios
	// split it evenly (ceil) across devices.
	Batch int64 `json:"batch"`
	// Tables overrides the family's embedding-table population (DLRM
	// families only; nil keeps the builder default).
	Tables []workload.TableSpec `json:"tables,omitempty"`
	// Devices is the execution width; 0 and 1 both mean single-device.
	// Widths above 1 select the hybrid-parallel path: dense layers
	// data-parallel at Batch/Devices, embedding tables sharded by the
	// planner, collectives priced by the Comm model.
	Devices int `json:"devices,omitempty"`
	// Comm names the interconnect model for Devices > 1 (CommNVLink
	// default, CommPCIe).
	Comm string `json:"comm,omitempty"`
}

// Single returns the single-device scenario of a built-in workload —
// the exact shape every pre-scenario PredictRequest had.
func Single(workloadName string, batch int64) Spec {
	return Spec{Workload: workloadName, Batch: batch, Devices: 1}
}

// NumDevices returns the normalized execution width (>= 1).
func (s Spec) NumDevices() int {
	if s.Devices < 1 {
		return 1
	}
	return s.Devices
}

// Validate checks structural constraints common to every consumer.
func (s Spec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("scenario: empty workload")
	}
	if s.Batch <= 0 {
		return fmt.Errorf("scenario %s: batch %d must be positive", s.Workload, s.Batch)
	}
	if s.Devices < 0 {
		return fmt.Errorf("scenario %s: negative device count %d", s.Workload, s.Devices)
	}
	if s.Devices > MaxDevices {
		return fmt.Errorf("scenario %s: device count %d above the %d-device limit", s.Workload, s.Devices, MaxDevices)
	}
	if n := int64(s.NumDevices()); s.Batch < n {
		return fmt.Errorf("scenario %s: batch %d smaller than device count %d", s.Workload, s.Batch, n)
	}
	for i, t := range s.Tables {
		if t.Rows <= 0 || t.Lookups <= 0 || t.Skew < 0 {
			return fmt.Errorf("scenario %s: table %d has invalid spec %+v", s.Workload, i, t)
		}
	}
	if _, err := predict.CommByName(s.Comm); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Workload, err)
	}
	// A comm model on a single-device spec would never be exercised and
	// is dropped from the canonical identity; reject it so two
	// differently-written specs cannot alias one fingerprint.
	if s.Comm != "" && s.NumDevices() == 1 {
		return fmt.Errorf("scenario %s: comm %q set on a single-device spec", s.Workload, s.Comm)
	}
	return nil
}

// AppendCanonical appends the identity-bearing fields, in a normalized
// order, to b and returns the extended slice. Two specs with equal
// encodings predict identically; Name is deliberately excluded. The
// encoding is pinned: it keys every memoized graph and result, so
// changing a byte invalidates warm-started caches.
//
//lint:hotpath root
func (s *Spec) AppendCanonical(b []byte) []byte {
	b = append(b, "w="...)
	b = append(b, s.Workload...)
	b = append(b, ";b="...)
	b = strconv.AppendInt(b, s.Batch, 10)
	b = append(b, ";n="...)
	b = strconv.AppendInt(b, int64(s.NumDevices()), 10)
	if s.NumDevices() > 1 {
		// Comm names are case-insensitive; normalize so "NVLink" and
		// "nvlink" share one identity.
		b = append(b, ";comm="...)
		if s.Comm == "" {
			b = append(b, CommNVLink...)
		} else {
			b = appendLowerASCII(b, s.Comm)
		}
	}
	if len(s.Tables) > 0 {
		b = append(b, ";tables="...)
		b = AppendTablesKey(b, s.Tables)
	}
	return b
}

// appendLowerASCII lower-cases s byte-wise while appending. Comm names
// are ASCII by construction (predict.CommByName's switch), so this
// matches strings.ToLower on every accepted input.
//
//lint:hotpath root
func appendLowerASCII(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// AppendTablesKey renders a table population canonically — the
// identity under which equal populations (and equal per-device shards)
// share fingerprints and memoized graphs. The skew renders with
// strconv's shortest 'g' formatting, byte-identical to the fmt %g verb
// the key historically used.
//
//lint:hotpath root
func AppendTablesKey(b []byte, tables []workload.TableSpec) []byte {
	for i, t := range tables {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, t.Rows, 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(t.Lookups), 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, t.Skew, 'g', -1, 64)
	}
	return b
}

// TablesOf expands a DLRM family configuration into its table
// population — the population the engine shards when a spec carries no
// explicit tables, and the one listings should preview.
func TablesOf(cfg models.DLRMConfig) []workload.TableSpec {
	out := make([]workload.TableSpec, len(cfg.EmbRows))
	for i, r := range cfg.EmbRows {
		out[i] = workload.TableSpec{Rows: r, Lookups: cfg.Lookups, Skew: cfg.ZipfSkew}
	}
	return out
}

// Fingerprint is the deterministic cache identity of the spec: a
// human-scannable prefix plus a hash of the canonical encoding.
func (s Spec) Fingerprint() string {
	return string(s.AppendFingerprint(nil))
}

// AppendFingerprint appends the fingerprint to b and returns the
// extended slice. The canonical encoding is hashed in place through
// b's spare capacity, so a caller reusing a scratch buffer fingerprints
// with zero allocations.
//
// It runs per request, under the engine's cache key.
//
//lint:hotpath root
func (s *Spec) AppendFingerprint(b []byte) []byte {
	b = append(b, s.Workload...)
	b = append(b, "-b"...)
	b = strconv.AppendInt(b, s.Batch, 10)
	b = append(b, "-n"...)
	b = strconv.AppendInt(b, int64(s.NumDevices()), 10)
	b = append(b, '-')
	mark := len(b)
	b = s.AppendCanonical(b)
	h := xrand.HashBytes(b[mark:])
	return xrand.AppendHex16(b[:mark], h)
}

// Generator is one named scenario: a workload family with its default
// batch size and execution width.
type Generator struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// DefaultBatch is substituted when Build is called with batch 0.
	DefaultBatch int64
	// DefaultDevices is substituted when Build is called with devices 0.
	DefaultDevices int
	// workload is the model-family builder name; tables, when set,
	// returns a fresh table population for each built spec.
	workload string
	tables   func() []workload.TableSpec
}

// registry is the fixed scenario table: six workload families, each as
// a single-device generator and multi-GPU presets (name-2gpu,
// name-4gpu).
var registry = func() map[string]Generator {
	out := map[string]Generator{}
	for _, f := range []struct {
		name, desc, workload string
		batch                int64
		tables               func() []workload.TableSpec
	}{
		{"dlrm-default", "DLRM_default (Table III): 8x1M tables, D=64, L=64",
			models.NameDLRMDefault, 2048, nil},
		{"dlrm-ddp", "DLRM_DDP (Table III): 8x80k tables, D=128, L=80",
			models.NameDLRMDDP, 2048, nil},
		{"dlrm-criteo", "DLRM_MLPerf over the 26-table Criteo Kaggle cardinality profile",
			models.NameDLRMMLPerf, 2048, workload.CriteoLikeTables},
		{"dlrm-uniform", "DLRM_default over 8 uniform 1M-row tables (benchmark synthetic input)",
			models.NameDLRMDefault, 2048,
			func() []workload.TableSpec { return workload.UniformTables(8, 1_000_000, 64) }},
		{"cnn-resnet50", "ResNet-50 training iteration (data-parallel when multi-GPU)",
			models.NameResNet50, 32, nil},
		{"cnn-inception", "Inception-V3 training iteration (data-parallel when multi-GPU)",
			models.NameInceptionV3, 32, nil},
	} {
		for _, n := range []int{1, 2, 4} {
			g := Generator{Name: f.name, Description: f.desc, DefaultBatch: f.batch,
				DefaultDevices: n, workload: f.workload, tables: f.tables}
			if n > 1 {
				g.Name = fmt.Sprintf("%s-%dgpu", f.name, n)
				g.Description = fmt.Sprintf("%s, hybrid-parallel across %d devices", f.desc, n)
			}
			out[g.Name] = g
		}
	}
	return out
}()

// Names lists the registered scenario names, sorted.
func Names() []string { return slices.Sorted(maps.Keys(registry)) }

// Lookup returns the generator registered under name.
func Lookup(name string) (Generator, bool) {
	g, ok := registry[name]
	return g, ok
}

// Build resolves a registered scenario name into a validated Spec.
// batch 0 and devices 0 select the generator's defaults, so callers can
// override either axis independently (e.g. run "dlrm-criteo-4gpu" at 8
// devices, or "cnn-resnet50" at batch 64).
func Build(name string, batch int64, devices int) (Spec, error) {
	g, ok := Lookup(name)
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	if batch == 0 {
		batch = g.DefaultBatch
	}
	if devices == 0 {
		devices = g.DefaultDevices
	}
	s := Spec{Name: name, Workload: g.workload, Batch: batch, Devices: devices}
	if g.tables != nil {
		s.Tables = g.tables()
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

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
package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

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

// Canonical renders the identity-bearing fields in a normalized order.
// Two specs with equal Canonical strings predict identically; Name is
// deliberately excluded.
func (s Spec) Canonical() string {
	return string(s.AppendCanonical(nil))
}

// AppendCanonical appends the canonical encoding to b and returns the
// extended slice — the allocation-free form of Canonical for hot
// cache-key builders. The encoding is pinned: it keys every memoized
// graph and result, so changing a byte invalidates warm-started caches.
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

// Generator builds Specs for one registered scenario name.
type Generator struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// DefaultBatch is substituted when Build is called with batch 0.
	DefaultBatch int64
	// DefaultDevices is substituted when Build is called with devices 0.
	DefaultDevices int
	// Make produces the spec at a resolved batch size and device count.
	Make func(batch int64, devices int) (Spec, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Generator{}
)

// Register installs a generator; re-registering a name is a programming
// error and panics.
func Register(g Generator) {
	if g.Name == "" || g.Make == nil {
		panic("scenario: generator needs a name and a Make func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[g.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate generator %q", g.Name))
	}
	registry[g.Name] = g
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the generator registered under name.
func Lookup(name string) (Generator, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
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
	s, err := g.Make(batch, devices)
	if err != nil {
		return Spec{}, err
	}
	s.Name = name
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// family registers a plain workload-family generator plus its
// multi-GPU presets (name-2gpu, name-4gpu).
func family(name, desc, workloadName string, defaultBatch int64, tables func() []workload.TableSpec) {
	mk := func(batch int64, devices int) (Spec, error) {
		s := Spec{Workload: workloadName, Batch: batch, Devices: devices}
		if tables != nil {
			s.Tables = tables()
		}
		return s, nil
	}
	Register(Generator{Name: name, Description: desc,
		DefaultBatch: defaultBatch, DefaultDevices: 1, Make: mk})
	for _, n := range []int{2, 4} {
		Register(Generator{
			Name:           fmt.Sprintf("%s-%dgpu", name, n),
			Description:    fmt.Sprintf("%s, hybrid-parallel across %d devices", desc, n),
			DefaultBatch:   defaultBatch,
			DefaultDevices: n,
			Make:           mk,
		})
	}
}

func init() {
	family("dlrm-default", "DLRM_default (Table III): 8x1M tables, D=64, L=64",
		models.NameDLRMDefault, 2048, nil)
	family("dlrm-ddp", "DLRM_DDP (Table III): 8x80k tables, D=128, L=80",
		models.NameDLRMDDP, 2048, nil)
	family("dlrm-criteo", "DLRM_MLPerf over the 26-table Criteo Kaggle cardinality profile",
		models.NameDLRMMLPerf, 2048, workload.CriteoLikeTables)
	family("dlrm-uniform", "DLRM_default over 8 uniform 1M-row tables (benchmark synthetic input)",
		models.NameDLRMDefault, 2048,
		func() []workload.TableSpec { return workload.UniformTables(8, 1_000_000, 64) })
	family("cnn-resnet50", "ResNet-50 training iteration (data-parallel when multi-GPU)",
		models.NameResNet50, 32, nil)
	family("cnn-inception", "Inception-V3 training iteration (data-parallel when multi-GPU)",
		models.NameInceptionV3, 32, nil)
}

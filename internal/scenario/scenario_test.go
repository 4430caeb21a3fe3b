package scenario

import (
	"strings"
	"testing"

	"dlrmperf/internal/models"
	"dlrmperf/internal/workload"
)

func TestFingerprintIdentity(t *testing.T) {
	a := Single(models.NameDLRMDefault, 2048)
	b := Single(models.NameDLRMDefault, 2048)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal specs fingerprint differently")
	}
	// Name is informational: it must not affect identity.
	b.Name = "anything"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Name changed the fingerprint")
	}
	// Devices 0 and 1 are the same execution.
	b.Devices = 0
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("devices 0 vs 1 fingerprint differently")
	}
	// Comm names are case-insensitive and default to nvlink.
	lower := Spec{Workload: models.NameDLRMDefault, Batch: 2048, Devices: 2, Comm: "nvlink"}
	upper := Spec{Workload: models.NameDLRMDefault, Batch: 2048, Devices: 2, Comm: "NVLink"}
	blank := Spec{Workload: models.NameDLRMDefault, Batch: 2048, Devices: 2}
	if lower.Fingerprint() != upper.Fingerprint() || lower.Fingerprint() != blank.Fingerprint() {
		t.Error("comm-name case or default changed the fingerprint")
	}

	distinct := []Spec{
		Single(models.NameDLRMDefault, 1024),
		Single(models.NameDLRMDDP, 2048),
		{Workload: models.NameDLRMDefault, Batch: 2048, Devices: 2},
		{Workload: models.NameDLRMDefault, Batch: 2048, Devices: 2, Comm: CommPCIe},
		{Workload: models.NameDLRMDefault, Batch: 2048,
			Tables: workload.UniformTables(4, 1000, 8)},
	}
	seen := map[string]string{a.Fingerprint(): string(a.AppendCanonical(nil))}
	for _, s := range distinct {
		fp, canon := s.Fingerprint(), string(s.AppendCanonical(nil))
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %q and %q -> %s", prev, canon, fp)
		}
		seen[fp] = canon
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"single", Single(models.NameDLRMDefault, 512), true},
		{"multi", Spec{Workload: models.NameDLRMDefault, Batch: 512, Devices: 4}, true},
		{"empty workload", Spec{Batch: 512}, false},
		{"zero batch", Spec{Workload: models.NameDLRMDefault}, false},
		{"negative devices", Spec{Workload: models.NameDLRMDefault, Batch: 512, Devices: -1}, false},
		{"batch below devices", Spec{Workload: models.NameDLRMDefault, Batch: 2, Devices: 4}, false},
		{"widest", Spec{Workload: models.NameDLRMDefault, Batch: 4096, Devices: MaxDevices}, true},
		{"above widest", Spec{Workload: models.NameDLRMDefault, Batch: 4096, Devices: MaxDevices + 1}, false},
		{"bad comm", Spec{Workload: models.NameDLRMDefault, Batch: 512, Devices: 2, Comm: "smoke-signal"}, false},
		{"case-insensitive comm", Spec{Workload: models.NameDLRMDefault, Batch: 512, Devices: 2, Comm: "NVLink"}, true},
		{"bad table", Spec{Workload: models.NameDLRMDefault, Batch: 512,
			Tables: []workload.TableSpec{{Rows: 0, Lookups: 1}}}, false},
		{"negative skew", Spec{Workload: models.NameDLRMDefault, Batch: 512,
			Tables: []workload.TableSpec{{Rows: 1000, Lookups: 1, Skew: -0.5}}}, false},
		{"zero skew", Spec{Workload: models.NameDLRMDefault, Batch: 512,
			Tables: []workload.TableSpec{{Rows: 1000, Lookups: 1, Skew: 0}}}, true},
		{"comm on single-device spec", Spec{Workload: models.NameDLRMDefault,
			Batch: 512, Comm: CommPCIe}, false},
		{"comm on width-0 spec", Spec{Workload: models.NameDLRMDefault,
			Batch: 512, Devices: 0, Comm: CommNVLink}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRegistryBuild(t *testing.T) {
	if len(Names()) < 6 {
		t.Fatalf("registry too small: %v", Names())
	}
	// Defaults resolve.
	s, err := Build("dlrm-criteo", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload != models.NameDLRMMLPerf || s.Batch != 2048 || s.NumDevices() != 1 {
		t.Errorf("dlrm-criteo defaults = %+v", s)
	}
	if len(s.Tables) != 26 {
		t.Errorf("dlrm-criteo tables = %d, want 26", len(s.Tables))
	}
	// Multi-GPU preset fixes the width; batch and width stay overridable.
	m, err := Build("dlrm-uniform-4gpu", 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDevices() != 4 || m.Batch != 1024 {
		t.Errorf("dlrm-uniform-4gpu override = %+v", m)
	}
	w, err := Build("dlrm-uniform-4gpu", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumDevices() != 2 {
		t.Errorf("width override ignored: %+v", w)
	}
	if _, err := Build("no-such-scenario", 0, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown name error = %v", err)
	}
	// Generated specs carry their registry name without changing identity.
	plain, err := Build("dlrm-uniform", 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Name != "dlrm-uniform" {
		t.Errorf("spec name = %q", plain.Name)
	}
}

func TestPlanShardsBalance(t *testing.T) {
	// 8 equal tables over 4 devices: a perfect split, imbalance 0.
	p, err := PlanShards(workload.UniformTables(8, 1_000_000, 32), 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Imbalance() != 0 {
		t.Errorf("uniform imbalance = %v, want 0", p.Imbalance())
	}
	for d, tables := range p.Assignments {
		if len(tables) != 2 {
			t.Errorf("device %d got %d tables, want 2", d, len(tables))
		}
	}

	// The Criteo profile is dominated by a handful of huge tables; LPT
	// must beat the trivial contiguous split and leave no device empty.
	tables := workload.CriteoLikeTables()
	p, err = PlanShards(tables, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, dev := range p.Assignments {
		if len(dev) == 0 {
			t.Error("device left empty")
		}
		covered += len(dev)
	}
	if covered != len(tables) {
		t.Errorf("plan covers %d of %d tables", covered, len(tables))
	}
	if p.Imbalance() < 0 || p.Imbalance() > 1 {
		t.Errorf("criteo imbalance = %v, want in [0,1]", p.Imbalance())
	}
	if p.MaxLoad < p.MeanLoad {
		t.Errorf("max load %v below mean %v", p.MaxLoad, p.MeanLoad)
	}

	// Determinism: the same inputs yield the same plan.
	q, err := PlanShards(tables, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	for d := range p.Assignments {
		if len(p.Assignments[d]) != len(q.Assignments[d]) {
			t.Fatalf("plan not deterministic on device %d", d)
		}
		for i := range p.Assignments[d] {
			if p.Assignments[d][i] != q.Assignments[d][i] {
				t.Fatalf("plan not deterministic on device %d", d)
			}
		}
	}
}

func TestPlanShardsErrors(t *testing.T) {
	tables := workload.UniformTables(2, 1000, 4)
	if _, err := PlanShards(tables, 64, 0); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := PlanShards(nil, 64, 2); err == nil {
		t.Error("empty table population accepted")
	}
	if _, err := PlanShards(tables, 64, 3); err == nil {
		t.Error("more devices than tables accepted")
	}
}

func TestPlanShardsCostZeroCost(t *testing.T) {
	// A degenerate cost function must still fill every device.
	p, err := PlanShardsCost(workload.UniformTables(6, 1000, 4), 3,
		func(workload.TableSpec) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for d, dev := range p.Assignments {
		if len(dev) == 0 {
			t.Errorf("device %d left empty under zero cost", d)
		}
	}
	if p.Imbalance() != 0 {
		t.Errorf("zero-cost imbalance = %v", p.Imbalance())
	}
}

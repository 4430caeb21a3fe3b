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

// TestProfileMatchesGoldenDatabases: Collector.Profile, which takes a
// run's samples as the simulator computes them and records no trace,
// builds every golden database of TestGoldenDatabases to the same
// digest, profiled and unprofiled. Its samples are the ones extraction
// replays from the traced run, name tables included, so the whole
// database, Defaults too, is the trace path's.
func TestProfileMatchesGoldenDatabases(t *testing.T) {
	c := NewCollector()
	for _, p := range hw.All() {
		for _, w := range goldenWorkloads {
			m, err := models.Build(w, 128)
			if err != nil {
				t.Fatal(err)
			}
			for _, profiled := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/profiled=%t", p.GPU.Name, w, profiled)
				cfg := sim.Config{Platform: p, Seed: 20240601, Warmup: 2, Iters: 6, Profile: profiled, Workload: w}
				s := c.Profile(m.Graph, cfg)
				if tr, _ := trace.Record(m.Graph, cfg); !reflect.DeepEqual(s, c.extract(tr)) {
					t.Errorf("%s: observed samples differ from the trace's", key)
				}
				db, err := c.Pool(1, 1, func(int) (*Samples, error) { return s, nil })
				if err != nil {
					t.Fatal(err)
				}
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

// TestPoolLeavesSamplesUntouched: pooling only reads its samples, so the
// same samples pooled twice, alone and beside others, are unchanged and
// give the same database.
func TestPoolLeavesSamplesUntouched(t *testing.T) {
	a := NewCollector().extract(profiledTrace(t, models.NameDLRMDefault, 512, 14))
	b := NewCollector().extract(profiledTrace(t, models.NameDLRMMLPerf, 512, 15))
	before := [2]Samples{*a, *b}
	c := NewCollector()
	alone := func() *DB {
		db, err := c.Pool(1, 1, func(int) (*Samples, error) { return b, nil })
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	want := alone()
	if _, err := c.Pool(2, 2, func(i int) (*Samples, error) { return [2]*Samples{a, b}[i], nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([2]Samples{*a, *b}, before) {
		t.Error("Pool wrote into its samples")
	}
	if got := alone(); !reflect.DeepEqual(got, want) {
		t.Error("pooling the samples beside others changed their own database")
	}
}

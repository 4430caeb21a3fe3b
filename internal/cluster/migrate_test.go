package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlrmperf/internal/client"
)

// fakeExporter is a controllable AssetExporter: fixed devices with
// test-bumpable epochs, counting exports.
type fakeExporter struct {
	mu     sync.Mutex
	epochs map[string]uint64
	saves  atomic.Uint64
}

func (f *fakeExporter) CalibratedDevices() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.epochs))
	for d := range f.epochs {
		out = append(out, d)
	}
	return out
}

func (f *fakeExporter) AssetsEpoch(device string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epochs[device]
}

func (f *fakeExporter) SaveAssets(device string) ([]byte, error) {
	f.saves.Add(1)
	return fakeAssets(device), nil
}

func (f *fakeExporter) bump(device string) {
	f.mu.Lock()
	f.epochs[device]++
	f.mu.Unlock()
}

// fakeAssets builds a minimal SaveAssets-shaped payload the fakeWorker
// install handler accepts (it only reads the device field).
func fakeAssets(device string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"version":1,"device":%q}`, device))
}

// TestVaultPutFreshness pins the vault's applied-if-newer rule: asset
// epochs are per-worker counters, so a re-push from the current home
// applies only if its epoch moved, while a push from a DIFFERENT
// worker always applies — the newest exporter is the device's new
// home and is authoritative.
func TestVaultPutFreshness(t *testing.T) {
	v := newAssetVault()
	if !v.put("gpu-0", "w1", 3, fakeAssets("gpu-0")) {
		t.Fatal("first put not applied")
	}
	if v.put("gpu-0", "w1", 3, fakeAssets("gpu-0")) {
		t.Fatal("same-worker same-epoch replay applied")
	}
	if v.put("gpu-0", "w1", 2, fakeAssets("gpu-0")) {
		t.Fatal("same-worker stale-epoch replay applied")
	}
	if !v.put("gpu-0", "w1", 4, fakeAssets("gpu-0")) {
		t.Fatal("same-worker newer epoch not applied")
	}
	// A different worker's epoch counter is incomparable: even a lower
	// number must win.
	if !v.put("gpu-0", "w2", 1, fakeAssets("gpu-0")) {
		t.Fatal("different-worker push not applied")
	}
	if st := v.snapshot(); st["gpu-0"].Worker != "w2" || st["gpu-0"].Epoch != 1 {
		t.Fatalf("snapshot = %+v, want w2@1", st["gpu-0"])
	}
}

// TestVaultNeedInstall pins the hand-off decision: no copy -> no
// install; target owns the copy -> no install; already handed this
// epoch -> no install; a newer export re-arms the hand-off.
func TestVaultNeedInstall(t *testing.T) {
	v := newAssetVault()
	if _, _, ok := v.needInstall("gpu-0", "w2"); ok {
		t.Fatal("install wanted with an empty vault")
	}
	v.put("gpu-0", "w1", 1, fakeAssets("gpu-0"))
	if _, _, ok := v.needInstall("gpu-0", "w1"); ok {
		t.Fatal("install wanted onto the exporting home itself")
	}
	data, epoch, ok := v.needInstall("gpu-0", "w2")
	if !ok || epoch != 1 || len(data) == 0 {
		t.Fatalf("needInstall = %q/%d/%v, want the vaulted copy", data, epoch, ok)
	}
	v.markInstalled("gpu-0", "w2", 1)
	if _, _, ok := v.needInstall("gpu-0", "w2"); ok {
		t.Fatal("install wanted again after markInstalled")
	}
	// The home recalibrates (epoch bump): the stand-in's copy is stale,
	// so the next routing decision re-installs.
	v.put("gpu-0", "w1", 2, fakeAssets("gpu-0"))
	if _, epoch, ok := v.needInstall("gpu-0", "w2"); !ok || epoch != 2 {
		t.Fatalf("needInstall after re-export = %d/%v, want epoch 2", epoch, ok)
	}
	if st := v.snapshot(); st["gpu-0"].InstalledOn != "w2" {
		t.Fatalf("snapshot = %+v, want installed_on w2", st["gpu-0"])
	}
}

// TestWarmHandoffOnFailover is the in-process tentpole migration test:
// a device's home dies after its assets were pushed to the
// coordinator; the retry routes to the survivor AND the coordinator
// installs the dead home's assets there first — so the survivor
// serves warm and its calibration ledger never grows.
func TestWarmHandoffOnFailover(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	victim, survivor := workers[0], workers[1]
	dev := affineDevice(t, coord.reg.Live(), victim.id)
	ctx := context.Background()

	// Prime: the home serves (and "calibrates") the device, then its
	// heartbeat pushes the exported assets into the vault.
	if row, err := coord.PredictOne(ctx, req(dev, "w", 512), false); err != nil || row.Error != "" {
		t.Fatalf("prime: %v / %q", err, row.Error)
	}
	if !coord.vault.put(dev, victim.id, 1, fakeAssets(dev)) {
		t.Fatal("vault rejected the home's push")
	}

	// Kill the home mid-stream. The failover request must land on the
	// survivor WARM: installed before served, ledger unchanged.
	victim.killed.Store(true)
	row, err := coord.PredictOne(ctx, req(dev, "w", 1024), false)
	if err != nil || row.Error != "" {
		t.Fatalf("failover: %v / %q", err, row.Error)
	}
	if !survivor.hasInstalled(dev) {
		t.Fatal("survivor served the failover request without the asset install")
	}
	if cals := survivor.calibratedDevices(); cals[dev] != 0 {
		t.Fatalf("survivor calibration ledger grew after warm hand-off: %v", cals)
	}

	// The hand-off is one-shot: further traffic neither re-installs nor
	// recalibrates.
	if row, err := coord.PredictOne(ctx, req(dev, "w", 2048), false); err != nil || row.Error != "" {
		t.Fatalf("post-failover: %v / %q", err, row.Error)
	}
	if n := survivor.installCount(); n != 1 {
		t.Fatalf("survivor saw %d installs, want exactly 1", n)
	}
	st := coord.Stats(ctx)
	if st.Coordinator.Migrations != 1 || st.Coordinator.MigrationFailures != 0 {
		t.Fatalf("migrations = %d/%d failures, want 1/0", st.Coordinator.Migrations, st.Coordinator.MigrationFailures)
	}
	if vs := st.Vault[dev]; vs.InstalledOn != survivor.id {
		t.Fatalf("vault status = %+v, want installed on the survivor", vs)
	}
	assertAggInvariant(t, st)
}

// TestMigrationFailureFallsBackCold: when the install itself fails the
// request still proceeds (the survivor calibrates cold — yesterday's
// behavior), and the degraded path is counted.
func TestMigrationFailureFallsBackCold(t *testing.T) {
	coord, workers := newTestCluster(t, 2, nil)
	victim, survivor := workers[0], workers[1]
	dev := affineDevice(t, coord.reg.Live(), victim.id)

	coord.vault.put(dev, victim.id, 1, json.RawMessage(`{"version":1}`)) // no device: install 400s
	victim.killed.Store(true)
	row, err := coord.PredictOne(context.Background(), req(dev, "w", 512), false)
	if err != nil || row.Error != "" {
		t.Fatalf("failover with broken install: %v / %q, want cold success", err, row.Error)
	}
	if cals := survivor.calibratedDevices(); cals[dev] != 1 {
		t.Fatalf("survivor ledger = %v, want a cold calibration", cals)
	}
	if st := coord.Stats(context.Background()); st.Coordinator.MigrationFailures != 1 || st.Coordinator.Migrations != 0 {
		t.Fatalf("migrations = %d/%d failures, want 0/1", st.Coordinator.Migrations, st.Coordinator.MigrationFailures)
	}
}

// TestWorkerAssetPushReplicates: a push to one coordinator's
// /v1/workers/assets lands in its vault AND gossips to the peer, so
// either survivor can drive the hand-off.
func TestWorkerAssetPushReplicates(t *testing.T) {
	cA, cB, urlA, _ := peerPair(t, nil, nil)
	if err := client.New(urlA).PushAssets(context.Background(), "w1", "gpu-7", 3, fakeAssets("gpu-7")); err != nil {
		t.Fatal(err)
	}
	if st := cA.vault.snapshot(); st["gpu-7"].Epoch != 3 {
		t.Fatalf("A's vault = %+v, want gpu-7@3", st)
	}
	waitUntil(t, "asset push to gossip to the peer", func() bool {
		st := cB.vault.snapshot()
		return st["gpu-7"].Worker == "w1" && st["gpu-7"].Epoch == 3
	})

	// Replays are dropped without re-gossip; a newer epoch propagates.
	if err := client.New(urlA).PushAssets(context.Background(), "w1", "gpu-7", 4, fakeAssets("gpu-7")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "newer epoch to gossip", func() bool { return cB.vault.snapshot()["gpu-7"].Epoch == 4 })
}

// TestHeartbeatAssetsPushes drives the worker-side loop against real
// coordinator handlers, once per shape it is deployed in: a replicated
// pair and a single coordinator. In both, registration reaches every
// listed coordinator within a beat, the registered worker serves
// traffic like a static one, each calibrated device's export lands in
// every vault, an epoch bump re-pushes while an unchanged device does
// not, and once the loop is stopped the worker expires one liveness
// window later.
func TestHeartbeatAssetsPushes(t *testing.T) {
	for _, tc := range []struct {
		name         string
		coordinators int
	}{
		{"replicated pair with exporter", 2},
		{"single coordinator with exporter", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var coords []*Coordinator
			var urls []string
			if tc.coordinators == 2 {
				cA, cB, urlA, urlB := peerPair(t, nil, nil)
				coords, urls = []*Coordinator{cA, cB}, []string{urlA, urlB}
			} else {
				c := New(Config{Registry: NewRegistry(0), Cache: passThrough{}})
				ts := httptest.NewServer(c.Handler())
				defer ts.Close()
				coords, urls = []*Coordinator{c}, []string{ts.URL}
			}
			exp := &fakeExporter{epochs: map[string]uint64{"gpu-1": 1}}
			vaultEpoch := func(c *Coordinator) uint64 { return c.vault.snapshot()["gpu-1"].Epoch }
			everywhere := func(cond func(*Coordinator) bool) bool {
				for _, c := range coords {
					if !cond(c) {
						return false
					}
				}
				return true
			}

			fw := newFakeWorker(t)
			stop := HeartbeatAssets(context.Background(), urls, fw.id, fw.srv.URL, 20*time.Millisecond, exp)
			defer stop()

			waitUntil(t, "registration to land", func() bool {
				return everywhere(func(c *Coordinator) bool { return len(c.reg.Live()) == 1 })
			})
			for _, c := range coords {
				if live := c.reg.Live(); live[0].ID != fw.id || live[0].Static {
					t.Fatalf("live after heartbeat = %+v, want the registered worker", live)
				}
			}
			// Registered workers serve traffic like static ones.
			if row, err := coords[0].PredictOne(context.Background(), req("V100", "w", 512), false); err != nil || row.Error != "" {
				t.Fatalf("predict via registered worker: %v / %q", err, row.Error)
			}

			waitUntil(t, "pushes to land", func() bool {
				return everywhere(func(c *Coordinator) bool { return vaultEpoch(c) == 1 })
			})
			// A pair's first push is gossiped to the peer, so the vaults
			// can agree before the heartbeat has exported for the second
			// coordinator: wait for one export per coordinator — the
			// settled count the next check starts from.
			waitUntil(t, "one export per coordinator", func() bool { return exp.saves.Load() >= uint64(len(coords)) })
			// Unchanged epochs stop pushing; a bump re-pushes everywhere.
			base := exp.saves.Load()
			time.Sleep(100 * time.Millisecond)
			if n := exp.saves.Load(); n != base {
				t.Fatalf("exports kept flowing with unchanged epochs: %d -> %d", base, n)
			}
			exp.bump("gpu-1")
			waitUntil(t, "epoch bump to re-push", func() bool {
				return everywhere(func(c *Coordinator) bool { return vaultEpoch(c) == 2 })
			})

			// Stop beating (twice: stop is idempotent). Once stop returns
			// the loop has exited, so one liveness window later — on the
			// injected clock, no sleeping — the worker must be gone.
			stop()
			stop()
			// No replication send may read the clock while it is swapped. Two
			// passes: a follower's forward makes the leader start one more
			// (apply-only, so final) fan-out.
			for pass := 0; pass < 2; pass++ {
				for _, c := range coords {
					c.repl.Wait()
				}
			}
			for _, c := range coords {
				c.reg.live.now = func() time.Time { return time.Now().Add(DefaultLiveness + time.Second) }
				if live := c.reg.Live(); len(live) != 0 {
					t.Fatalf("worker still live after heartbeats stopped: %+v", live)
				}
			}
			if _, err := coords[0].PredictOne(context.Background(), req("V100", "w", 1024), false); !errors.Is(err, ErrNoWorkers) {
				t.Fatalf("predict with expired worker: err = %v, want ErrNoWorkers", err)
			}
			st := coords[0].Stats(context.Background())
			if st.Rejected.NoWorkers != 1 {
				t.Fatalf("no-workers rejects = %d, want 1", st.Rejected.NoWorkers)
			}
			assertAggInvariant(t, st)
		})
	}
}

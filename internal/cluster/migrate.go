package cluster

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
)

// Asset migration on failover. Calibrating a device costs seconds; the
// serialized result (Engine.SaveAssets) is tens of KB at the fast tier
// (a V100 export at seed 2022 that holds the shared DLRM database is
// 30,346 B: it always carries the three family databases pooled with it,
// so four in all) and about 5.9 MB at the serving
// default. So the coordinator keeps a replicated copy of every worker's
// exported calibration assets in an assetVault — refreshed by the workers'
// heartbeat-time pushes (POST /v1/workers/assets, see
// HeartbeatAssets) and replicated to peer coordinators — and when a
// device's rendezvous home dies, the router streams the dead home's
// assets to the device's NEW rendezvous owner (POST
// /v1/assets/install on the worker) before the first request is
// routed there. The new home's first post-failover request is warm:
// its calibration ledger does not grow, and latency is the cached
// path, not a multi-second recalibration.
//
// The vault needs no expiry hook into the registry: ownership is
// evaluated at routing time. Whether the old home was expired by the
// liveness window, quarantined by MarkFailed, or simply out-ranked, the
// rule is the same — if the vault's copy of a device's assets came
// from a worker other than the one about to be routed to, and that
// worker has not been handed them yet, install first. Installs are
// idempotent (LoadAssets overwrites the same pinned slot), so
// concurrent coordinators racing the same hand-off are safe.

// vaultEntry is the replicated asset copy of one device.
type vaultEntry struct {
	worker string // the worker that exported these assets (the device's home)
	epoch  uint64 // the home's asset epoch at export time
	data   []byte
}

// installMark records the newest hand-off: which worker was last
// handed a device's assets, at which vault epoch.
type installMark struct {
	worker string
	epoch  uint64
}

// assetVault is the coordinator's replicated per-device asset store.
type assetVault struct {
	mu        sync.Mutex
	entries   map[string]vaultEntry  // device -> newest export
	installed map[string]installMark // device -> last hand-off target
	gates     map[string]*sync.Mutex // device -> install critical section
}

func newAssetVault() *assetVault {
	return &assetVault{
		entries:   map[string]vaultEntry{},
		installed: map[string]installMark{},
		gates:     map[string]*sync.Mutex{},
	}
}

// put applies one asset export and reports whether it changed the
// vault (the signal to gossip it onward). Epochs are per-worker
// counters, not globally ordered: a push from the CURRENT home applies
// only if its epoch moved forward, while a push from a different
// worker always applies — the newest exporter is the device's new home
// and is authoritative.
func (v *assetVault) put(device, worker string, epoch uint64, data []byte) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if cur, ok := v.entries[device]; ok && cur.worker == worker && epoch <= cur.epoch {
		return false
	}
	v.entries[device] = vaultEntry{worker: worker, epoch: epoch, data: data}
	return true
}

// needInstall reports whether routing device traffic to target
// requires a hand-off first, returning the assets to install. No
// install is needed when the vault has no copy, when target exported
// the copy itself (it IS the home), or when target was already handed
// this exact epoch.
func (v *assetVault) needInstall(device, target string) (data []byte, epoch uint64, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	e, exists := v.entries[device]
	if !exists || e.worker == target {
		return nil, 0, false
	}
	if m, done := v.installed[device]; done && m.worker == target && m.epoch == e.epoch {
		return nil, 0, false
	}
	return e.data, e.epoch, true
}

// markInstalled records a completed hand-off.
func (v *assetVault) markInstalled(device, target string, epoch uint64) {
	v.mu.Lock()
	v.installed[device] = installMark{worker: target, epoch: epoch}
	v.mu.Unlock()
}

// lockDevice serializes hand-offs per device: a post-failover burst
// performs one install while the rest of the burst waits for it, then
// routes warm — instead of racing N identical installs or, worse,
// routing ahead of the install and triggering the recalibration the
// vault exists to avoid.
func (v *assetVault) lockDevice(device string) (unlock func()) {
	v.mu.Lock()
	g, ok := v.gates[device]
	if !ok {
		g = &sync.Mutex{}
		v.gates[device] = g
	}
	v.mu.Unlock()
	g.Lock()
	return g.Unlock
}

// VaultStatus is one device's row in the /stats asset-vault block.
type VaultStatus struct {
	Worker string `json:"worker"`
	Epoch  uint64 `json:"epoch"`
	Bytes  int    `json:"bytes"`
	// InstalledOn is the last hand-off target ("" until a migration
	// happened).
	InstalledOn string `json:"installed_on,omitempty"`
}

// snapshot assembles the vault's observable state.
func (v *assetVault) snapshot() map[string]VaultStatus {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.entries) == 0 {
		return nil
	}
	out := make(map[string]VaultStatus, len(v.entries))
	for d, e := range v.entries {
		st := VaultStatus{Worker: e.worker, Epoch: e.epoch, Bytes: len(e.data)}
		if m, ok := v.installed[d]; ok {
			st.InstalledOn = m.worker
		}
		out[d] = st
	}
	return out
}

// ensureWarm performs the hand-off for one routing decision: if the
// device's vaulted assets came from a worker other than w, stream them
// to w before the caller routes traffic there. Failure is not fatal —
// the request proceeds and w cold-calibrates, which is exactly
// yesterday's behavior — but is counted, so a degraded migration path
// is visible in /stats.
func (c *Coordinator) ensureWarm(ctx context.Context, device string, w Worker) {
	if _, _, ok := c.vault.needInstall(device, w.ID); !ok {
		return // fast path: no vault copy, or w already owns/has it
	}
	unlock := c.vault.lockDevice(device)
	defer unlock()
	data, epoch, ok := c.vault.needInstall(device, w.ID) // recheck under the gate
	if !ok {
		return
	}
	if err := c.workerClient(w.URL).InstallAssets(ctx, data); err != nil {
		c.migrationFailures.Add(1)
		return
	}
	c.vault.markInstalled(device, w.ID, epoch)
	c.migrations.Add(1)
}

// handleWorkerAssets ingests one worker asset export into the vault
// and replicates it to peer coordinators (apply-only on their side)
// when it changed the vault.
func (c *Coordinator) handleWorkerAssets(w http.ResponseWriter, r *http.Request) {
	var p serve.AssetPush
	if serve.DecodeBody(w, r, &p) && c.share(w, entry{Assets: &p}) {
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "stored"})
	}
}

// AssetExporter is the engine surface the worker-side asset sync
// rides: which devices hold calibration assets, each device's
// mutation epoch, and the serialized export. *dlrmperf.Engine
// implements it.
type AssetExporter interface {
	CalibratedDevices() []string
	AssetsEpoch(device string) uint64
	SaveAssets(device string) ([]byte, error)
}

// HeartbeatAssets self-registers a worker with EVERY coordinator in
// coordinatorURLs immediately and then every interval (default 2s),
// keeping it inside each registry's liveness window, until the
// returned stop function is called (idempotent, waits for the loop to
// exit) or ctx is canceled — and pushes each of exp's calibrated
// devices' exported assets to each coordinator whenever the device's
// asset epoch has moved since the last successful push there.
// The push is the replication source of the coordinators' asset
// vaults: it is what makes a warm hand-off possible after this worker
// dies. Registration and push failures are retried on the next tick; a
// restarted coordinator re-learns both within one beat. Each call is
// bounded at 5s: a beat must never hang past its own interval for long.
func HeartbeatAssets(ctx context.Context, coordinatorURLs []string, id, selfURL string, interval time.Duration, exp AssetExporter) (stop func()) {
	hc := &http.Client{Timeout: 5 * time.Second}
	clients := make([]*client.Client, len(coordinatorURLs))
	pushed := make([]map[string]uint64, len(coordinatorURLs))
	for i, u := range coordinatorURLs {
		clients[i] = client.New(u, client.WithHTTPClient(hc))
		pushed[i] = map[string]uint64{}
	}
	return every(ctx, interval, func() {
		for i, cl := range clients {
			if err := cl.Register(ctx, id, selfURL); err != nil {
				continue // coordinator unreachable; retried next tick
			}
			devices := exp.CalibratedDevices()
			sort.Strings(devices)
			for _, d := range devices {
				epoch := exp.AssetsEpoch(d)
				if epoch == pushed[i][d] {
					continue
				}
				data, err := exp.SaveAssets(d)
				if err != nil {
					continue
				}
				if cl.PushAssets(ctx, id, d, epoch, data) == nil {
					// The epoch may have moved between AssetsEpoch and
					// SaveAssets; recording the pre-export epoch only means
					// the next beat re-pushes, which is the safe direction.
					pushed[i][d] = epoch
				}
			}
		}
	})
}

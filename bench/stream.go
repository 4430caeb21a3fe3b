package main

import (
	"encoding/json"
	"fmt"

	"dlrmperf"
	"dlrmperf/internal/serve"
	"dlrmperf/internal/xrand"
)

// Load shape shared by the serving workloads: four closed-loop clients
// on four connections, two to a core. With one to a core, both cores
// fall idle whenever both clients wait on a socket, and how fast the
// host wakes an idle virtual CPU then sets the latency: the p50 of
// identical runs falls into two groups 30% apart. With two to a core
// there is always work to find, and it does not.
const (
	numClients    = 4
	hotPoolSize   = 64   // far below the 512-entry result caps
	mixedPoolSize = 4096 // 8x the result caps, so LRU behaviour sets the hit share
	batchRows     = 64
	zipfSkew      = 1.0
	// novelRange bounds how many never-seen fingerprints one run can
	// draw; a 60 s window at 4k ops/s needs about half of it.
	novelRange = 1 << 19
)

var (
	dlrmFamilies  = []string{dlrmperf.DLRMDefault, dlrmperf.DLRMMLPerf, dlrmperf.DLRMDDP}
	otherFamilies = []string{dlrmperf.ResNet50, dlrmperf.InceptionV3, dlrmperf.Transformer}
	gpuWidths     = []int{1, 2, 4}
)

// otherDevice is the one device the CNN and Transformer families are
// served on: collecting their overhead databases costs 0.2-0.9 s each,
// and doing so on all three devices would triple every set-up.
const otherDevice = dlrmperf.V100

// families are the per-family metric suffixes.
var families = []string{"dlrm", "cnn", "transformer"}

// family maps a workload name onto its suffix.
func family(workload string) string {
	switch workload {
	case dlrmperf.ResNet50, dlrmperf.InceptionV3:
		return "cnn"
	case dlrmperf.Transformer:
		return "transformer"
	}
	return "dlrm"
}

// firstTouches lists one request per (device, family, shared) triple a
// serving workload can ask for. Serving them during set-up calibrates
// each device on its owner and collects every overhead database, so no
// simulated run lands inside a timed window.
func firstTouches() []serve.Request {
	var out []serve.Request
	for _, d := range dlrmperf.Devices() {
		for _, w := range dlrmFamilies {
			out = append(out,
				serve.Request{Workload: w, Batch: 512, Device: d},
				serve.Request{Workload: w, Batch: 512, Device: d, Shared: true})
		}
	}
	for _, w := range otherFamilies {
		out = append(out, serve.Request{Workload: w, Batch: 512, Device: otherDevice})
	}
	return out
}

// dlrmPool enumerates distinct DLRM specs (3 devices x 3 families x
// gpus 1/2/4 x a batch ladder), shuffles them by seed and keeps n.
func dlrmPool(seed uint64, n int) []serve.Request {
	devices := dlrmperf.Devices()
	combos := len(devices) * len(dlrmFamilies) * len(gpuWidths)
	steps := (n + combos - 1) / combos
	if steps < 4 {
		steps = 4
	}
	pool := make([]serve.Request, 0, combos*steps)
	for s := 0; s < steps; s++ {
		for _, d := range devices {
			for _, w := range dlrmFamilies {
				for _, g := range gpuWidths {
					pool = append(pool, serve.Request{Workload: w, Batch: int64(512 + 64*s), Device: d, GPUs: g})
				}
			}
		}
	}
	xrand.New(seed).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

// stream produces one client's operations. Each call to next returns
// the requests of one client call: one request, or one batch of rows.
type stream interface {
	next() []serve.Request
}

// zipfStream draws rows Zipf-distributed over a pool.
type zipfStream struct {
	pool []serve.Request
	z    *xrand.Zipf
	rng  *xrand.Rand
	rows int
	// tagged marks batch rows with the two tenants of batch-mixed.
	tagged bool
}

func (s *zipfStream) next() []serve.Request {
	out := make([]serve.Request, s.rows)
	for i := range out {
		out[i] = s.pool[s.z.Next()]
		if s.tagged {
			if s.rng.Intn(4) == 0 {
				out[i].Tenant, out[i].Priority = "bg", "low"
			} else {
				out[i].Tenant, out[i].Priority = "hot", "high"
			}
		}
	}
	return out
}

// novelStream yields a fingerprint no earlier request had: the batch
// size is unique per draw, everything else is hashed from the draw.
type novelStream struct {
	seed   uint64
	client uint64
	i      uint64
}

func (s *novelStream) next() []serve.Request {
	g := s.i*numClients + s.client
	s.i++
	return []serve.Request{novelRequest(s.seed, g)}
}

// novelRequest is the g-th request of the never-seen stream. g maps
// onto a unique multiple-of-4 batch size through an odd multiplier
// (a bijection on novelRange), so batch sizes do not grow with time.
func novelRequest(seed, g uint64) serve.Request {
	if g >= novelRange {
		panic(fmt.Sprintf("bench: novel stream exhausted after %d requests", g))
	}
	batch := int64(4 * (64 + (g*0x9e37+seed%novelRange)%novelRange))
	h := xrand.New(seed ^ g*0x9e3779b97f4a7c15).Uint64()
	if h%10 == 0 {
		return serve.Request{Workload: otherFamilies[h/10%3], Batch: batch, Device: otherDevice}
	}
	devices := dlrmperf.Devices()
	return serve.Request{
		Workload: dlrmFamilies[h/10%3],
		Batch:    batch,
		Device:   devices[g%uint64(len(devices))],
		GPUs:     []int{1, 1, 2, 4}[h/30%4],
		Shared:   h/120%8 == 0,
	}
}

// newStream builds one client's stream of a serving workload.
func newStream(workload string, seed uint64, client int) stream {
	rng := xrand.New(seed*numClients + uint64(client) + 1)
	switch workload {
	case "hot-repeat":
		return &zipfStream{pool: dlrmPool(seed, hotPoolSize), z: xrand.NewZipf(rng, hotPoolSize, zipfSkew), rows: 1}
	case "novel-stream":
		return &novelStream{seed: seed, client: uint64(client)}
	case "batch-mixed":
		return &zipfStream{pool: dlrmPool(seed, mixedPoolSize), z: xrand.NewZipf(rng.Split(), mixedPoolSize, zipfSkew),
			rng: rng, rows: batchRows, tagged: true}
	}
	panic("bench: no request stream for workload " + workload)
}

// streamDigest hashes the first operations of every client's stream.
// The same seed must give the same digest: it is how a result file
// shows which inputs it measured.
func streamDigest(workload string, seed uint64) string {
	if workload == "cold-start" {
		// No request stream: the inputs are the seed and the fixed
		// device and workload lists.
		return fmt.Sprintf("%016x", xrand.HashString(fmt.Sprint(seed, dlrmperf.Devices(), dlrmperf.Workloads())))
	}
	var h uint64
	for c := 0; c < numClients; c++ {
		st := newStream(workload, seed, c)
		for op := 0; op < 256; op++ {
			data, err := json.Marshal(st.next())
			if err != nil {
				panic(err) // serve.Request always marshals
			}
			h = h*1099511628211 ^ xrand.HashBytes(data)
		}
	}
	return fmt.Sprintf("%016x", h)
}

// identity strips the admission tags, which never enter a prediction's
// identity, so that answers to one spec compare across tenants.
func identity(r serve.Request) serve.Request {
	r.Tenant, r.Priority = "", ""
	return r
}

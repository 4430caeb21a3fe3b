package kernels

import (
	"math"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/xrand"
)

// Device is the ground-truth executor: given a kernel invocation it
// returns the time the kernel takes on the modeled GPU. It stands in for
// the real silicon in this reproduction, so it is intentionally richer
// than any performance model built on top of it:
//
//   - GEMM suffers cuBLAS-style tile and wave quantization with
//     tile-dependent efficiency (the paper cites exactly these effects as
//     the reason heuristic GEMM models are infeasible);
//   - embedding lookups go through an L2-residency cache model with
//     parallelism-dependent achieved bandwidth;
//   - memory kernels see bandwidth ramp-up (small transfers achieve a
//     fraction of peak);
//   - transpose pays alignment penalties for non-multiple-of-32 rows;
//   - every (kernel shape, device) pair carries a stable "silicon quirk"
//     factor, modeling the shape-specific behavior real kernels exhibit
//     that no analytic model captures; and
//   - each invocation is perturbed by measurement noise.
//
// Prediction code must never call into this type; it sees only
// microbenchmark samples and simulator traces.
type Device struct {
	GPU hw.GPU

	// noise is the per-invocation measurement noise: a unit-mean
	// log-normal factor, derived once from noiseCV.
	noise xrand.LogNormalDist
	rng   *xrand.Rand
}

// noiseCV is the coefficient of variation of the measurement noise.
const noiseCV = 0.025

// NewDevice returns a ground-truth executor for the given GPU,
// drawing its measurement noise from seed.
func NewDevice(gpu hw.GPU, seed uint64) *Device {
	return &Device{GPU: gpu, noise: xrand.LogNormalMeanCVDist(1, noiseCV), rng: xrand.New(seed)}
}

// BaseTime returns the noise-free execution time of k in microseconds
// (still including the deterministic per-shape silicon quirk).
func (d *Device) BaseTime(k Kernel) float64 {
	var t float64
	switch k.Kind {
	case KindGEMM:
		t = d.gemmTime(k)
	case KindEmbeddingFwd, KindEmbeddingBwd:
		t = d.embeddingTime(k)
	case KindConcat:
		t = d.concatTime(k)
	case KindMemcpyH2D:
		t = d.memcpyTime(k)
	case KindTranspose:
		t = d.transposeTime(k)
	case KindTrilFwd, KindTrilBwd:
		t = d.trilTime(k)
	case KindElementwise:
		t = d.elementwiseTime(k)
	case KindConv:
		t = d.convTime(k)
	case KindBatchNorm:
		t = d.batchNormTime(k)
	default:
		panic(unknown(k.Kind))
	}
	return t * d.quirk(k)
}

// Noisy perturbs a noise-free time by one draw of measurement noise:
// Noisy(BaseTime(k)) is one "measured" execution of k, as a profiler
// would report it. BaseTime is a pure function of (device, kernel) and
// the expensive half — the quirk renders and hashes the kernel's name —
// so a caller that launches one kernel many times computes it once and
// draws per launch.
func (d *Device) Noisy(base float64) float64 {
	return base * d.rng.Draw(d.noise)
}

// RunAveraged runs k iters times and returns the mean, mirroring the
// paper's 30-iteration kernel benchmarking protocol.
func (d *Device) RunAveraged(k Kernel, iters int) float64 {
	if iters <= 0 {
		iters = 1
	}
	base := d.BaseTime(k)
	s := 0.0
	for i := 0; i < iters; i++ {
		s += d.Noisy(base)
	}
	return s / float64(iters)
}

// quirk returns the deterministic per-(shape, device) efficiency factor.
// Its amplitude differs per kernel kind: proprietary, heavily tuned
// kernels (GEMM, transpose) have larger shape-specific variation than
// simple copies.
func (d *Device) quirk(k Kernel) float64 {
	var amp float64
	switch k.Kind {
	case KindGEMM, KindConv:
		amp = 0.09
	case KindTranspose:
		amp = 0.08
	case KindTrilFwd, KindTrilBwd:
		amp = 0.05
	case KindEmbeddingFwd, KindEmbeddingBwd:
		amp = 0.035
	case KindMemcpyH2D:
		// The paper measures memcpy extremely accurately on V100 (0.57%
		// GMAE) but less so on the desktop TITAN Xp platform.
		if d.GPU.Name == hw.V100 {
			amp = 0.008
		} else {
			amp = 0.05
		}
	default:
		amp = 0.03
	}
	// FNV-1a over the device name and the kernel's rendering.
	var buf [128]byte
	h := uint64(14695981039346656037)
	for _, c := range k.AppendString(append(buf[:0], d.GPU.Name...)) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	u := float64(h>>11) / (1 << 53) // uniform [0,1)
	return 1 + amp*(2*u-1)
}

// ramp returns the fraction of peak bandwidth achieved for a transfer of
// the given size; halfSat is the size achieving 50% of the asymptote.
// The pure-saturation form means small transfers pay an effective fixed
// latency of halfSat/peakBW on top of their streaming time, which is how
// real copy-engine and memory-kernel bandwidth curves behave.
func ramp(bytes, halfSat float64) float64 {
	if bytes <= 0 {
		return 0.01
	}
	return bytes / (bytes + halfSat)
}

// --- GEMM -------------------------------------------------------------

type tileConfig struct {
	tm, tn int64
	eff    float64 // fraction of peak FLOPS at steady state, full machine
}

// gemmTiles are the candidate kernel variants; like cuBLAS's heuristic
// dispatcher, the ground truth evaluates each and runs the fastest.
// Larger tiles are more efficient per FLOP but expose less parallelism
// and pad small problems heavily.
var gemmTiles = []tileConfig{
	{128, 128, 0.80},
	{64, 64, 0.62},
	{32, 32, 0.40},
	{16, 16, 0.22},
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func (d *Device) gemmTime(g Kernel) float64 {
	if g.B <= 0 || g.M <= 0 || g.N <= 0 || g.K <= 0 {
		return d.GPU.MinKernelTime
	}
	sms := int64(d.GPU.NumSMs)
	perSMFlops := d.GPU.PeakFP32 / float64(d.GPU.NumSMs)
	// K is processed in 32-wide slices; partial slices cost a full one
	// (tile quantization along K).
	kPadded := ceilDiv(g.K, 32) * 32

	best := math.Inf(1)
	for _, tile := range gemmTiles {
		tilesM := ceilDiv(g.M, tile.tm)
		tilesN := ceilDiv(g.N, tile.tn)
		ctas := g.B * tilesM * tilesN
		perCTAFlops := 2 * float64(tile.tm) * float64(tile.tn) * float64(kPadded)
		// Wave quantization: an SM processes its CTAs serially; the grid
		// takes ceil(ctas/SMs) CTA-rounds regardless of how empty the
		// last wave is.
		rounds := ceilDiv(ctas, sms)
		// Under-occupied grids (fewer than ~2 CTAs per SM) cannot hide
		// memory latency and lose throughput.
		occ := float64(ctas) / float64(2*sms)
		if occ > 1 {
			occ = 1
		}
		eff := tile.eff * (0.45 + 0.55*occ)
		t := float64(rounds) * perCTAFlops / (perSMFlops * eff)
		if t < best {
			best = t
		}
	}

	read, write := g.Bytes()
	tMem := (read + write) / (d.GPU.DRAMBandwidth * 0.78 * ramp(read+write, 512<<10))
	if tMem > best {
		best = tMem
	}
	return best + d.GPU.MinKernelTime
}

// --- Embedding lookup ---------------------------------------------------

// elTraffic returns the per-WARP L2 and DRAM byte traffic of a batched
// embedding lookup under the ground-truth cache model.
func (d *Device) elTraffic(e Kernel) (l2P, dramP float64) {
	rowBytes := float64(ceilDiv(4*e.D, 32) * 32)
	trIdx := float64(ceilDiv(4*e.L, 32) * 32)
	const trFixed = 32 + 64 // table_offsets + offsets
	weights := float64(e.L) * rowBytes
	out := rowBytes

	p := d.elHitRate(e)
	if e.Backward() {
		// Gradient rows are read, updated, and written through; writes
		// cannot be served by L2 in the long run.
		weights = 2 * weights
		p *= 0.5
	}
	l2P = trFixed + p*weights
	dramP = trIdx + out + (1-p)*weights
	return l2P, dramP
}

// elHitRate is the ground-truth per-access L2 hit probability for
// embedding-row reads. It follows a residency argument similar to the
// paper's enhanced model but with different structure: 128-byte line
// granularity, steady-state per-access (not per-pooled-group) hits, a
// conflict-miss ceiling, and Zipf-locality amplification.
func (d *Device) elHitRate(e Kernel) float64 {
	if e.E <= 0 {
		return 0
	}
	lineBytes := float64(ceilDiv(4*e.D, 128) * 128)
	resTables := float64(RowsPerBlock) * float64(d.GPU.NumSMs) / float64(e.B)
	if resTables < 1 {
		resTables = 1
	}
	if t := float64(e.T); resTables > t {
		resTables = t
	}
	cachedRows := float64(d.GPU.L2Size) / (resTables * lineBytes)
	if cachedRows > float64(e.E) {
		cachedRows = float64(e.E)
	}
	p := cachedRows / float64(e.E)
	if e.ZipfSkew > 0 {
		// Skewed reuse concentrates accesses on resident hot rows.
		p = 1 - math.Pow(1-p, 1+3*e.ZipfSkew)
	}
	if p > 0.95 {
		p = 0.95 // conflict misses cap the achievable hit rate
	}
	return p
}

func (d *Device) embeddingTime(e Kernel) float64 {
	if e.B <= 0 || e.T <= 0 || e.L <= 0 || e.D <= 0 {
		return d.GPU.MinKernelTime
	}
	l2P, dramP := d.elTraffic(e)
	warps := float64(e.B) * float64(e.T)

	// Achieved bandwidth depends on how well the grid fills the machine.
	ctas := ceilDiv(e.B*e.T, RowsPerBlock)
	fill := float64(ctas) / float64(d.GPU.NumSMs)
	if fill > 1 {
		fill = 1
	}
	// Random row gathers achieve well under half of streaming bandwidth:
	// scattered 128-512B rows waste transaction granularity and thrash
	// the TLB. (Real V100 gather microbenchmarks land at 300-450 GB/s.)
	bwEff := 0.42 + 0.12*fill
	t := warps * (dramP/(d.GPU.DRAMBandwidth*bwEff) + l2P/(d.GPU.L2Bandwidth*0.8))
	return t + d.GPU.MinKernelTime
}

// --- Memory kernels -----------------------------------------------------

func (d *Device) concatTime(c Kernel) float64 {
	read, write := c.Bytes()
	bytes := read + write
	t := bytes / (d.GPU.DRAMBandwidth * 0.85 * ramp(bytes, 768<<10))
	// Each additional source tensor adds a small per-segment cost.
	t += 0.12 * float64(c.NInputs)
	return t + d.GPU.MinKernelTime
}

func (d *Device) memcpyTime(m Kernel) float64 {
	bytes := float64(m.NBytes)
	t := bytes / (d.GPU.PCIeBandwidth * ramp(bytes, 256<<10))
	// Driver/DMA setup latency beyond the generic kernel floor.
	return t + 4.5 + d.GPU.MinKernelTime
}

func (d *Device) transposeTime(t Kernel) float64 {
	read, write := t.Bytes()
	bytes := read + write
	penalty := 1.0
	if t.N%32 != 0 {
		penalty += 0.45 // misaligned rows defeat coalescing on one side
	}
	if t.M%32 != 0 {
		penalty += 0.20
	}
	if t.M*t.N < 4096 {
		penalty += 0.35 // tiny matrices underfill the tile buffers
	}
	tt := bytes * penalty / (d.GPU.DRAMBandwidth * 0.80 * ramp(bytes, 512<<10))
	return tt + d.GPU.MinKernelTime
}

func (d *Device) trilTime(t Kernel) float64 {
	read, write := t.Bytes()
	bytes := read + write
	penalty := 1.6 // gather indexing through an int64 index tensor
	if t.Backward() {
		// IndexBackward scatters through index_put_ with accumulation:
		// atomic adds at element granularity, an order of magnitude off
		// streaming bandwidth.
		penalty = 7.5
	}
	// Index arithmetic makes very small extractions latency-bound.
	if t.B*t.F*t.F < 1<<16 {
		penalty += 0.30
	}
	tt := bytes * penalty / (d.GPU.DRAMBandwidth * 0.82 * ramp(bytes, 512<<10))
	return tt + d.GPU.MinKernelTime
}

func (d *Device) elementwiseTime(e Kernel) float64 {
	read, write := e.Bytes()
	bytes := read + write
	tMem := bytes / (d.GPU.DRAMBandwidth * 0.88 * ramp(bytes, 1<<20))
	tCompute := e.FLOPs() / (d.GPU.PeakFP32 * 0.5)
	t := tMem
	if tCompute > t {
		t = tCompute
	}
	return t + d.GPU.MinKernelTime
}

// --- CNN kernels ----------------------------------------------------------

func (d *Device) convTime(c Kernel) float64 {
	g := c.AsGEMM()
	// Implicit GEMM pays an efficiency tax over plain GEMM, worse for
	// asymmetric (1x7 / 7x1) and pointwise filters.
	eff := 0.72
	if c.R != c.S {
		eff = 0.55
	} else if c.R == 1 {
		eff = 0.85 // 1x1 convs are clean GEMMs
	}
	t := d.gemmTime(g) / eff
	// Extra input re-reads from the implicit im2col expansion.
	read, _ := c.Bytes()
	t += 0.4 * read / (d.GPU.DRAMBandwidth * 0.78)
	return t
}

func (d *Device) batchNormTime(b Kernel) float64 {
	read, write := b.Bytes()
	bytes := read + write
	t := bytes / (d.GPU.DRAMBandwidth * 0.82 * ramp(bytes, 1<<20))
	return t + 2*d.GPU.MinKernelTime // two-pass kernel
}

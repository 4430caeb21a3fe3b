package sim

import (
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/xrand"
)

// This file is the *ground truth* for host-side overheads: the
// distributions the simulated PyTorch runtime draws from. The paper's
// five overhead types (Section III-C, Fig. 6) are generated here with the
// properties the paper empirically observes and assumes:
//
//   - model-independence: a given op's overhead distribution is a
//     property of (op name, host), not of the model it appears in;
//   - size-independence: distributions do not depend on tensor sizes;
//   - per-op variation: different ops have different T2/T3/T5 means
//     (Fig. 8 spans ~2-45 µs across ops);
//   - long tails: occasional 3-8x outliers, especially for T1 and
//     cudaMemcpyAsync, which the paper identifies as the cause of its
//     systematic E2E underestimation once outliers are trimmed.
//
// The prediction side never reads these distributions; it re-estimates
// overheads from traces, as the paper does.

// Overhead type indices.
const (
	T1 = iota // gap between two top-level op calls
	T2        // op start to first kernel launch
	T3        // last kernel launch end to op end
	T4        // CUDA runtime function execution
	T5        // between two kernel launches
)

// Sampler draws ground-truth overhead samples for one host.
type Sampler struct {
	host     hw.Host
	workload string
	rng      *xrand.Rand
}

// NewSampler returns a Sampler for the host drawing from seed. The
// workload name induces a mild (±15%) per-op bias: the paper's
// model-independence assumption holds only approximately on real systems
// (Section IV-B offers "not a strict mathematical proof"), and this
// residual dependence is what makes shared-overhead prediction slightly
// worse than per-workload overheads in Fig. 9.
func NewSampler(host hw.Host, seed uint64, workload string) *Sampler {
	return &Sampler{host: host, workload: workload, rng: xrand.New(seed)}
}

// workloadBias returns the stable per-workload mean factor: a global
// component (models stress the Python dispatcher, allocator, and
// autograd bookkeeping differently as a whole) times a per-op component.
// Both are invisible to a shared overhead database, which is what costs
// shared-overhead prediction its extra error in Fig. 9.
func (s *Sampler) workloadBias(typ int, op string) float64 {
	if s.workload == "" {
		return 1
	}
	global := 1 + 0.18*(opHash(77, s.workload)-0.5)
	perOp := 1 + 0.22*(opHash(byte(16+typ), s.workload, "\x00", op)-0.5)
	return global * perOp
}

// opHash returns a stable uniform value in [0,1) for the bytes of parts
// and then salt, from their 64-bit FNV-1a hash, implementing "every op
// has its own characteristic overhead".
func opHash(salt byte, parts ...string) float64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * 1099511628211
		}
	}
	h = (h ^ uint64(salt)) * 1099511628211
	return float64(h>>11) / (1 << 53)
}

// T1Mean is the reference mean of the between-ops gap on the V100 host
// (Fig. 7 shows ~8 µs across all models and batch sizes).
const T1Mean = 8.0

// MeanFor returns the distribution mean of the given overhead type for an
// op on this host. Exposed so tests can verify the model/size
// independence assumptions directly.
func (s *Sampler) MeanFor(typ int, op string) float64 {
	var m float64
	switch typ {
	case T1:
		m = T1Mean
	case T2:
		// Skewed: most ops dispatch quickly, autograd-heavy ops slowly.
		u := opHash(2, op)
		m = 8 + 52*u*u
	case T3:
		m = 3 + 14*opHash(3, op)
	case T5:
		m = 4 + 22*opHash(5, op)
	case T4:
		m = 9.5
	default:
		panic("sim: unknown overhead type")
	}
	return m * s.host.OverheadScale
}

// T4Mean returns the runtime-call mean for a specific runtime function:
// cudaMemcpyAsync is slower and tailier than cudaLaunchKernel.
func (s *Sampler) T4Mean(fn string) float64 {
	m := 9.5
	if fn == kernels.RTMemcpyAsync {
		m = 15.0
	}
	return m * s.host.OverheadScale
}

// dist is one overhead distribution resolved to what a draw needs: the
// log-normal body around the mean with the host's CV, and the chance of
// a 3-8x long-tail excursion.
type dist struct {
	body xrand.LogNormalDist
	tail float64
}

func (s *Sampler) newDist(mean, tailBoost float64) dist {
	return dist{xrand.LogNormalMeanCVDist(mean, s.host.OverheadCV), s.host.TailWeight * tailBoost}
}

// opDist resolves the distribution of one overhead type for op. It is
// a function of (host, workload, type, op) only, so the simulator
// derives it once per op name of a run, not once per draw.
func (s *Sampler) opDist(typ int, op string) dist {
	tail := 1.0
	if typ == T1 {
		tail = 1.6 // T1 has the heaviest tail (GC, allocator, Python)
	}
	return s.newDist(s.MeanFor(typ, op)*s.workloadBias(typ, op), tail)
}

// t4Dist resolves the duration distribution of the named runtime
// function.
func (s *Sampler) t4Dist(fn string) dist {
	tail := 1.0
	if fn == kernels.RTMemcpyAsync {
		tail = 2.0
	}
	return s.newDist(s.T4Mean(fn), tail)
}

func (s *Sampler) draw(d dist) float64 {
	v := s.rng.Draw(d.body)
	if s.rng.Float64() < d.tail {
		v *= 3 + 5*s.rng.Float64()
	}
	return v
}

// Profiler overhead reference constants (Section III-C): the values the
// paper's analyzer subtracts per event. The simulator injects stochastic
// overheads *around* these means, so subtraction leaves a small residual,
// as on real hardware.
const (
	ProfilerGPUEventOverhead = 4.0
	ProfilerCPUEventOverhead = 2.0
)

// profilerDists returns the cost the profiler adds to each CPU op event
// and to each GPU (kernel) event.
func (s *Sampler) profilerDists() (cpu, gpu xrand.LogNormalDist) {
	return xrand.LogNormalMeanCVDist(ProfilerCPUEventOverhead*s.host.OverheadScale, 0.25),
		xrand.LogNormalMeanCVDist(ProfilerGPUEventOverhead*s.host.OverheadScale, 0.25)
}

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dlrmperf"
)

// Request is the wire format of one prediction request — the same
// schema the dlrmperf-serve batch fixture uses, for the file-driven
// one-shot mode, POST /v1/predict (one object), and
// POST /v1/predict/batch (an array).
type Request struct {
	Workload string `json:"workload,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Batch    int64  `json:"batch,omitempty"`
	Device   string `json:"device"`
	GPUs     int    `json:"gpus,omitempty"`
	Comm     string `json:"comm,omitempty"`
	Shared   bool   `json:"shared,omitempty"`
	// TimeoutMs optionally tightens this request's deadline below the
	// server's default; the effective deadline is the smaller of the
	// two. Expired requests fail with the context error; the
	// computation they started keeps running and lands in the result
	// cache.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Tenant tags the request for per-tenant fair admission and the
	// per-tenant /stats breakdown. It is a serve-layer field only —
	// never part of the scenario identity, so two tenants asking for
	// the same scenario share one cached prediction. Empty means the
	// "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority selects the admission class: "high", "normal" (or
	// empty), or "low". Higher classes get a larger weighted share of
	// the dequeue order; no class is ever fully starved. Like Tenant it
	// never enters the scenario identity.
	Priority string `json:"priority,omitempty"`
}

// ToPredict maps the wire request onto the facade request.
func (r Request) ToPredict() dlrmperf.PredictRequest {
	return dlrmperf.PredictRequest{
		Workload: r.Workload, Scenario: r.Scenario, Batch: r.Batch,
		Device: r.Device, GPUs: r.GPUs, Comm: r.Comm, SharedOverheads: r.Shared,
	}
}

// Result is one row of a report (and the POST /v1/predict response).
type Result struct {
	Request
	E2EUs             float64 `json:"e2e_us,omitempty"`
	ActiveUs          float64 `json:"active_us,omitempty"`
	CPUUs             float64 `json:"cpu_us,omitempty"`
	GPUsUsed          int     `json:"gpus_used,omitempty"`
	ScalingEfficiency float64 `json:"scaling_efficiency,omitempty"`
	AllReduceUs       float64 `json:"allreduce_us,omitempty"`
	AllToAllUs        float64 `json:"alltoall_us,omitempty"`
	ShardImbalance    float64 `json:"shard_imbalance,omitempty"`
	CacheHit          bool    `json:"cache_hit,omitempty"`
	// QueueWaitUs is the time this request spent in the admission
	// queue before a worker picked it up — the fairness signal that
	// separates admission wait from service time.
	QueueWaitUs int64  `json:"queue_wait_us,omitempty"`
	Error       string `json:"error,omitempty"`
}

// resultFrom flattens a facade result into the wire row.
//
// Every served row is flattened here.
//
//lint:hotpath root
func resultFrom(req Request, res dlrmperf.PredictResult) Result {
	row := Result{Request: req}
	if res.Err != nil {
		row.Error = res.Err.Error()
		return row
	}
	row.E2EUs = res.Prediction.E2EUs
	row.ActiveUs = res.Prediction.ActiveUs
	row.CPUUs = res.Prediction.CPUUs
	row.GPUsUsed = res.GPUs
	row.ScalingEfficiency = res.ScalingEfficiency
	row.AllReduceUs = res.AllReduceUs
	row.AllToAllUs = res.AllToAllUs
	row.ShardImbalance = res.ShardImbalance
	row.CacheHit = res.CacheHit
	return row
}

// ReportError is the structured failure entry emitted when a whole
// batch fails, or when post-serve work (asset re-save) fails; it pairs
// with a non-zero process exit in the one-shot driver. It is the error
// envelope of non-200 responses under a second name.
type ReportError = HTTPError

// CacheStats mirrors the engine's prediction result cache counters.
// Hits + Misses equals the requests the engine served; requests refused
// at validation are RejectedStats.Validation.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// RejectedStats breaks out the requests that never reached a
// computation, by the wall they hit: scenario/device validation
// (inside the engine, before the compute path), a full admission queue
// (backpressure 429s), a tenant that exhausted its fair queue share
// while the queue itself had room (also 429, but the hot tenant's own
// doing), admissions refused because the server was draining, and
// blocking admissions abandoned by the caller (its context expired
// while waiting for queue space — the client gave up, which can happen
// even with space free, so it is not a queue-full).
type RejectedStats struct {
	Validation    uint64 `json:"validation"`
	QueueFull     uint64 `json:"queue_full"`
	TenantLimited uint64 `json:"tenant_limited"`
	Draining      uint64 `json:"draining"`
	Canceled      uint64 `json:"canceled_admissions"`
}

// Total sums every never-computed bucket.
func (r RejectedStats) Total() uint64 {
	return r.Validation + r.QueueFull + r.TenantLimited + r.Draining + r.Canceled
}

// Add sums o into r, bucket by bucket.
func (r *RejectedStats) Add(o RejectedStats) {
	r.Validation += o.Validation
	r.QueueFull += o.QueueFull
	r.TenantLimited += o.TenantLimited
	r.Draining += o.Draining
	r.Canceled += o.Canceled
}

// QueueStats is the admission queue's observable state.
type QueueStats struct {
	// Depth is the current queued (admitted, not yet executing) count;
	// PeakDepth its high-water mark; Capacity the bound that triggers
	// backpressure.
	Depth     int   `json:"depth"`
	PeakDepth int64 `json:"peak_depth"`
	Capacity  int   `json:"capacity"`
	// Workers is the concurrent execution width; InFlight/PeakInFlight
	// count jobs a worker is running right now and at the high-water
	// mark.
	Workers      int   `json:"workers"`
	InFlight     int64 `json:"in_flight"`
	PeakInFlight int64 `json:"peak_in_flight"`
	// AvgServiceUs is the exponential moving average of per-request
	// service time the adaptive Retry-After hint is derived from;
	// RetryAfterHintSecs is the hint a 429/503 would carry right now
	// (estimated backlog drain time, clamped to the configured bounds).
	AvgServiceUs       float64 `json:"avg_service_us,omitempty"`
	RetryAfterHintSecs int     `json:"retry_after_hint_secs,omitempty"`
}

// TenantStats is one tenant's row in the per-tenant /stats breakdown.
// Requests counts admissions that reached the fair queue (the draining
// gate sits before tenant resolution); Served the subset handed to a
// worker; Shed the 429s (queue_full and tenant_limited); Canceled the
// blocking admissions whose caller expired while waiting. Wait times
// measure the queue only — service time is excluded.
type TenantStats struct {
	Requests    uint64  `json:"requests"`
	Served      uint64  `json:"served"`
	Shed        uint64  `json:"shed"`
	Canceled    uint64  `json:"canceled"`
	Queued      int     `json:"queued"`
	TotalWaitUs int64   `json:"total_wait_us"`
	AvgWaitUs   float64 `json:"avg_wait_us"`
	MaxWaitUs   int64   `json:"max_wait_us"`
}

// LatencyStats aggregates the wall-clock service time of the jobs the
// workers ran (queue wait excluded); AvgUs averages over those jobs.
type LatencyStats struct {
	AvgUs   float64 `json:"avg_us"`
	MaxUs   int64   `json:"max_us"`
	TotalUs int64   `json:"total_us"`
}

// Stats is the GET /stats document: admission, service, cache, and
// asset-store counters. The accounting invariant — every admitted
// request lands in exactly one bucket — is
//
//	Cache.Hits + Cache.Misses + Rejected.Total() <= Requests
//
// on EVERY snapshot, with equality at quiescence; canceled requests
// are a subset of the misses. The slack is exactly the requests in
// flight at snapshot time (admitted, not yet bucketed). The one-sided
// bound is guaranteed by Stats' read order — every bucket counter is
// loaded BEFORE the request total, so a bucket can never be observed
// ahead of the total that contains it (see Server.Stats).
type Stats struct {
	Requests uint64              `json:"requests"`
	Served   uint64              `json:"served"`
	Canceled uint64              `json:"canceled"`
	Rejected RejectedStats       `json:"rejected"`
	Queue    QueueStats          `json:"queue"`
	Latency  LatencyStats        `json:"latency"`
	Cache    CacheStats          `json:"cache"`
	Assets   dlrmperf.AssetStats `json:"assets"`
	// Calibrations maps each device that calibrated in this process to
	// its executed calibration count (normally 1; 0-count devices are
	// omitted). The cluster coordinator merges these per-worker maps to
	// prove device-affine routing.
	Calibrations map[string]int `json:"calibrations,omitempty"`
	// Tenants is the per-tenant admission breakdown (absent until the
	// first request reaches the fair queue). The rows are informational
	// detail under the top-level invariant, not a second accounting
	// identity: draining rejects are not tenant-attributed.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// AssetInstalls counts POST /v1/assets/install payloads accepted —
	// cluster warm hand-offs landed on this worker. Installs are control
	// plane, not requests: they join no side of the accounting invariant.
	AssetInstalls uint64 `json:"asset_installs,omitempty"`
	Draining      bool   `json:"draining"`
}

// Accounted sums the terminal buckets of a snapshot: cache hits,
// misses, and every rejection. The snapshot invariant is
// Accounted() <= Requests, with equality at quiescence.
func (s Stats) Accounted() uint64 {
	return s.Cache.Hits + s.Cache.Misses + s.Rejected.Total()
}

// Report is the POST /v1/predict/batch response, of a worker and of a
// coordinator alike, and the batch half of the one-shot document. It
// describes its batch and nothing else: the rows in request order, how
// many there were and failed, how long the batch took, and the
// all_requests_failed entry when no row survived. A server's lifetime
// counters are GET /stats. NewReport is its one constructor.
type Report struct {
	Results   Rows         `json:"results"`
	Requests  int          `json:"requests"`
	Failed    int          `json:"failed"`
	ElapsedMs float64      `json:"elapsed_ms"`
	Error     *ReportError `json:"error,omitempty"`
}

// HTTPError is the JSON error envelope of non-200 responses — shared
// by the worker surface here and the cluster coordinator, so clients
// parse one shape whichever layer rejected them.
type HTTPError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// StatusError is a refusal of the serving wire — any answer but 200 —
// as one Go value from the handler that writes it (WriteError) to the
// client that reads it back (client.decodeError), on the worker and the
// coordinator alike: the status, the body's envelope, and the
// Retry-After hint (0: none sent). Its Error is the message alone, so a
// refusal that lands in a batch row reads the same on every tier.
type StatusError struct {
	Status int
	HTTPError
	RetryAfter time.Duration
}

func (e *StatusError) Error() string { return e.Message }

// Refusal is the StatusError of a status, a code and a message, with no
// hint of its own.
func Refusal(status int, code, message string) *StatusError {
	return &StatusError{Status: status, HTTPError: HTTPError{Code: code, Message: message}}
}

// WriteError is the one writer of a refusal, on the worker and the
// coordinator alike: the StatusError err holds (errors.As), under its
// own status and envelope, or 500 internal for an error that holds
// none. A 429 or a 503 carries Retry-After: its own hint, or tierHint,
// the answering tier's adaptive one, when it has none.
//
// Every shed request is answered through it.
//
//lint:hotpath root
func WriteError(w http.ResponseWriter, err error, tierHint time.Duration) {
	var se *StatusError
	if !errors.As(err, &se) {
		se = Refusal(http.StatusInternalServerError, "internal", err.Error())
	}
	if se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable {
		hint := se.RetryAfter
		if hint <= 0 {
			hint = tierHint
		}
		w.Header().Set("Retry-After", RetryAfterSeconds(hint))
	}
	buf := GetBuffer()
	defer buf.Release()
	buf.appendHTTPError(&se.HTTPError)
	buf.respond(w, se.Status, nil)
}

// Registration is the POST /v1/workers/register wire body.
type Registration struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// AssetPush is the POST /v1/workers/assets wire body: one worker's
// exported SaveAssets payload for one device, stamped with the
// device's asset epoch so stale replays are dropped.
type AssetPush struct {
	ID     string          `json:"id"`
	Device string          `json:"device"`
	Epoch  uint64          `json:"epoch"`
	Assets json.RawMessage `json:"assets"`
}

// WriteJSON renders v as a compact, single-line JSON response with the
// given status. It is the response writer of the serving wire surface
// (worker and coordinator alike) for every answer but a refusal, which
// is WriteError's. The body is encoded before the status is written, so
// a value that cannot be encoded answers the 500 internal envelope
// instead of the status it came with and no body. A Result and a
// *Report go through the row codec; every other document (stats,
// health, scenario lists, explore reports, acknowledgements) through
// encoding/json.
//
//lint:hotpath root
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := GetBuffer()
	defer buf.Release()
	var err error
	switch v := v.(type) {
	case Result:
		err = buf.appendResult(&v)
	case *Report:
		err = buf.appendReport(v)
	default:
		err = json.NewEncoder(buf).Encode(v) //lint:allow hotpath only documents that carry no prediction row take this branch: stats, health, scenario lists, explore reports and the register, install and drain acknowledgements
	}
	buf.respond(w, status, err)
}

// WriteResult answers 200 with one row. It is WriteJSON for the hot
// case, typed so that the row is not boxed on its way out.
//
//lint:hotpath root
func WriteResult(w http.ResponseWriter, row *Result) {
	buf := GetBuffer()
	defer buf.Release()
	buf.respond(w, http.StatusOK, buf.appendResult(row))
}

func (b *Buffer) appendResult(row *Result) error {
	line, err := AppendResult(b.AvailableBuffer(), row)
	b.Write(append(line, '\n'))
	return err
}

func (b *Buffer) appendReport(rep *Report) error {
	b.Grow(64 + rowsSizeHint(len(rep.Results)))
	body, err := AppendReport(b.AvailableBuffer(), rep)
	b.Write(append(body, '\n'))
	return err
}

func (b *Buffer) appendHTTPError(e *HTTPError) {
	b.Write(append(appendHTTPError(b.AvailableBuffer(), e), '\n'))
}

// respond writes the encoded body under status — or, when encoding
// failed, the 500 internal envelope.
func (b *Buffer) respond(w http.ResponseWriter, status int, encodeErr error) {
	if encodeErr != nil {
		b.Reset()
		status = http.StatusInternalServerError
		b.appendHTTPError(&HTTPError{Code: "internal", Message: encodeErr.Error()})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b.Bytes()) // a client that hung up gets no second answer
}

// jsonContentType is shared by every response: net/http copies header
// values out when it writes them and Header.Set/Add replace or regrow a
// value slice rather than write into it, so one read-only slice saves
// the allocation per response.
var jsonContentType = []string{"application/json"}

// The admission limits of the serving wire surface, one set for the
// worker and the coordinator alike.
const (
	// MaxBodyBytes bounds HTTP request bodies, so a single oversized POST
	// cannot balloon memory before admission control even runs.
	MaxBodyBytes = 16 << 20
	// MaxBatch bounds the rows of one POST /v1/predict/batch: the batch
	// path admits by blocking, so the row count must be bounded for
	// backpressure to bound anything. It is also the chunk size a sweep
	// travels in.
	MaxBatch = 4096
	// MaxGrid bounds the expanded cross-product size of one
	// POST /v1/explore. Unlike MaxBatch it caps the *expanded* size: a
	// few-line grid spec can name millions of points, so the wire size
	// bounds nothing.
	MaxGrid = 1 << 18
)

// readBody reads a request body, bounded at MaxBodyBytes, into a pooled
// buffer the caller Releases. An unreadable or oversized body is
// answered with the 400 bad_request envelope and ok is false.
func readBody(w http.ResponseWriter, r *http.Request) (buf *Buffer, ok bool) {
	buf = GetBuffer()
	if _, err := buf.ReadBounded(http.MaxBytesReader(w, r.Body, MaxBodyBytes), MaxBodyBytes, r.ContentLength); err != nil {
		buf.Release()
		badRequest(w, err)
		return nil, false
	}
	return buf, true
}

func badRequest(w http.ResponseWriter, err error) {
	WriteError(w, Refusal(http.StatusBadRequest, "bad_request", err.Error()), 0)
}

// DecodeBody is the one request-body reader of the serving wire surface
// (worker and coordinator alike): it reads the body, bounded at
// MaxBodyBytes, decodes the JSON into v, and answers a malformed or
// oversized body with the 400 bad_request envelope itself — ok is false
// once a response has been written. A body is exactly one JSON value:
// bytes after it are malformed input, not ignored. Prediction bodies go
// through DecodeRequest/DecodeBatch, which parse with the row codec and
// add the checks the admission queue relies on.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	buf, ok := readBody(w, r)
	if !ok {
		return false
	}
	defer buf.Release()
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		badRequest(w, err)
		return false
	}
	return true
}

// DecodeRequest reads a POST /v1/predict body and rejects an unknown
// priority class with 400 bad_priority — before any request counter
// moves, on the worker and the coordinator alike, so a request one
// layer would refuse never travels to the next.
//
//lint:hotpath root
func DecodeRequest(w http.ResponseWriter, r *http.Request) (req Request, ok bool) {
	buf, ok := readBody(w, r)
	if !ok {
		return req, false
	}
	req, err := UnmarshalRequest(buf.Bytes())
	buf.Release()
	if err != nil {
		badRequest(w, err)
		return req, false
	}
	if _, known := priorityClass(req.Priority); !known {
		WriteError(w, Refusal(http.StatusBadRequest, "bad_priority", "priority must be one of high, normal, low"), 0)
		return req, false
	}
	return req, true
}

// DecodeBatch reads a POST /v1/predict/batch body: a non-empty list of
// at most MaxBatch rows, every row in a known priority class.
//
//lint:hotpath root
func DecodeBatch(w http.ResponseWriter, r *http.Request) (reqs []Request, ok bool) {
	buf, ok := readBody(w, r)
	if !ok {
		return nil, false
	}
	reqs, err := UnmarshalRequests(buf.Bytes())
	buf.Release()
	switch {
	case err != nil:
		badRequest(w, err)
		return nil, false
	case len(reqs) == 0:
		return nil, rejectBatch(w, "bad_request", "empty request list")
	case len(reqs) > MaxBatch:
		return nil, rejectBatch(w, "batch_too_large", "batch of %d exceeds the %d-row limit; split it", len(reqs), MaxBatch)
	}
	for i := range reqs {
		if _, known := priorityClass(reqs[i].Priority); !known {
			return nil, rejectBatch(w, "bad_priority", "row %d: priority must be one of high, normal, low", i)
		}
	}
	return reqs, true
}

// rejectBatch answers a refused batch body with its 400 envelope. It
// formats the message of a check that failed, off the steady-state path.
//
//lint:hotpath stop formats the message of a refused batch body
func rejectBatch(w http.ResponseWriter, code, format string, args ...any) (ok bool) {
	WriteError(w, Refusal(http.StatusBadRequest, code, fmt.Sprintf(format, args...)), 0)
	return false
}

// The bounds of the adaptive Retry-After hint on 429/503 responses, one
// pair for the worker and the coordinator alike. Each adapts its hint to
// what it observes — a worker to its backlog's drain time, a coordinator
// to the workers' own 429 hints — and clamps it into this range.
const (
	MinRetryAfter = time.Second
	MaxRetryAfter = 30 * time.Second
)

// RetryAfterSeconds renders a backpressure hint as whole seconds,
// rounding UP with a 1s floor — the Retry-After header value on
// 429/503 responses. Rounding up matters: truncation would render a
// sub-second adaptive hint as "0" (retry immediately) and shave up to
// a second off every fractional one, undercutting the backoff the
// hint exists to request.
//
// It renders the hint of every shed request.
//
//lint:hotpath root
func RetryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// NewReport assembles the report of a finished batch: its rows, their
// count, how many failed, the elapsed time, and — when every row
// failed — the all_requests_failed entry the one-shot CLI turns into a
// non-zero exit.
func NewReport(results []Result, elapsed time.Duration) *Report {
	rep := &Report{Results: results, Requests: len(results), ElapsedMs: float64(elapsed.Microseconds()) / 1000}
	for _, row := range results {
		if row.Error != "" {
			rep.Failed++
		}
	}
	if rep.Failed == len(results) && rep.Failed > 0 {
		rep.Error = allRequestsFailed(rep.Failed, results[0].Error)
	}
	return rep
}

// allRequestsFailed formats the report error of a batch with no
// surviving row, off the steady-state path.
//
//lint:hotpath stop formats the error of a batch with no surviving row
func allRequestsFailed(failed int, first string) *ReportError {
	return &ReportError{
		Code:    "all_requests_failed",
		Message: fmt.Sprintf("all %d requests failed; first error: %s", failed, first),
	}
}

// Report is NewReport, for callers that hold a server: it reads none of
// the server's counters.
func (s *Server) Report(results []Result, elapsed time.Duration) *Report {
	return NewReport(results, elapsed)
}

// Package client is the typed Go client for the dlrmperf serving
// surface — the single blessed way to talk to a worker
// (internal/serve) or a coordinator (internal/cluster), which
// re-exports the worker wire surface. It owns the request encoding,
// response decoding, body-size limits, and the mapping from HTTP error
// envelopes (serve.HTTPError) onto typed Go errors, so no consumer —
// coordinator fan-out, load generator, e2e tests — hand-rolls its own
// status switch.
//
// Error taxonomy (all also match errors.As against *APIError):
//
//	429                    -> *ErrBackpressure (RetryAfter parsed)
//	503 code "draining"    -> *ErrDraining
//	503 code "no_workers"  -> *ErrNoWorkers
//	502 code "worker_failed" -> *ErrWorkerFailed
//	any other non-2xx      -> *APIError
//
// Transport failures (dial, broken stream) surface as the underlying
// *url.Error — a different failure class than a server that answered.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dlrmperf/internal/explore"
	"dlrmperf/internal/serve"
)

// defaultMaxBodyBytes bounds response bodies (64 MiB): a misbehaving
// server cannot balloon a client's memory, yet full explore reports
// over large grids still fit.
const defaultMaxBodyBytes = 64 << 20

// NewHTTPClient builds the HTTP client every caller of the serving
// surface shares (this package's default and the coordinator's worker
// hops): it dials fast (dead-socket detection must be quick) but never
// bounds the response wait — a cold worker legitimately spends minutes
// calibrating a device; callers needing a response bound pass a request
// context deadline. idlePerHost is how many idle connections are kept
// per server — the caller's own concurrency toward one host, or every
// call beyond it dials afresh; 0 keeps net/http's default of 2.
func NewHTTPClient(idlePerHost int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		MaxIdleConnsPerHost: idlePerHost,
	}}
}

var defaultHTTPClient = NewHTTPClient(0)

// Client talks to one server base URL.
type Client struct {
	base    string
	hc      *http.Client
	maxBody int64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (nil keeps the default).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithMaxBodyBytes bounds response bodies read by this client.
func WithMaxBodyBytes(n int64) Option {
	return func(c *Client) {
		if n > 0 {
			c.maxBody = n
		}
	}
}

// New returns a client for the server at base (scheme://host[:port],
// trailing slash tolerated).
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      defaultHTTPClient,
		maxBody: defaultMaxBodyBytes,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the server base URL this client targets.
func (c *Client) Base() string { return c.base }

// Predict submits one request on the non-blocking admission path
// (POST /v1/predict). A 429 surfaces as *ErrBackpressure with the
// server's Retry-After hint. Rows the server computed but failed
// (validation, deadline) return with err == nil and Result.Error set —
// an application-level verdict, not a transport failure.
func (c *Client) Predict(ctx context.Context, req serve.Request) (serve.Result, error) {
	var row serve.Result
	if err := c.postJSON(ctx, "/v1/predict", req, &row); err != nil {
		return serve.Result{}, err
	}
	return row, nil
}

// PredictBatch submits a request list on the blocking admission path
// (POST /v1/predict/batch) and returns a WORKER's full report. Against
// a coordinator use PredictBatchInto with the cluster report type — the
// coordinator's calibration ledger is nested per-worker and does not
// decode into serve.Report.
func (c *Client) PredictBatch(ctx context.Context, reqs []serve.Request) (*serve.Report, error) {
	var rep serve.Report
	if err := c.postJSON(ctx, "/v1/predict/batch", reqs, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// PredictBatchInto submits a request list and decodes the report into
// v — the shape-agnostic variant for coordinator reports or partial
// views.
func (c *Client) PredictBatchInto(ctx context.Context, reqs []serve.Request, v any) error {
	return c.postJSON(ctx, "/v1/predict/batch", reqs, v)
}

// Explore runs a design-space sweep (POST /v1/explore).
func (c *Client) Explore(ctx context.Context, g explore.Grid) (*explore.Report, error) {
	var rep explore.Report
	if err := c.postJSON(ctx, "/v1/explore", g, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Stats fetches a WORKER's /stats document. Against a coordinator use
// StatsInto with the cluster stats type — the client deliberately
// doesn't import internal/cluster (cluster imports client).
func (c *Client) Stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	if err := c.getJSON(ctx, "/stats", &st); err != nil {
		return serve.Stats{}, err
	}
	return st, nil
}

// StatsInto fetches /stats and decodes it into v — the shape-agnostic
// variant for coordinator documents or partial views.
func (c *Client) StatsInto(ctx context.Context, v any) error {
	return c.getJSON(ctx, "/stats", v)
}

// Health is the GET /healthz document. Workers is only populated by
// coordinators.
type Health struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
}

// Healthz fetches liveness. Both 200 ("ok") and 503 ("draining")
// decode into Health with err == nil — draining is a reportable state,
// not a request failure; anything else is an error.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var h Health
	data, resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return Health{}, decodeError(resp, data)
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return Health{}, fmt.Errorf("client: parsing /healthz: %w", err)
	}
	return h, nil
}

// Scenarios lists the server's registered scenario names.
func (c *Client) Scenarios(ctx context.Context) ([]string, error) {
	var names []string
	if err := c.getJSON(ctx, "/v1/scenarios", &names); err != nil {
		return nil, err
	}
	return names, nil
}

// Drain asks the server to drain (POST /v1/drain — mounted by workers
// running under a cluster registration).
func (c *Client) Drain(ctx context.Context) error {
	return c.postJSON(ctx, "/v1/drain", nil, nil)
}

// Register self-registers a worker with a coordinator
// (POST /v1/workers/register).
func (c *Client) Register(ctx context.Context, id, url string) error {
	body := struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}{ID: id, URL: url}
	return c.postJSON(ctx, "/v1/workers/register", body, nil)
}

// InstallAssets streams a SaveAssets payload to a worker
// (POST /v1/assets/install) so the device it covers serves warm — the
// cluster's asset hand-off on failover. The payload is already JSON
// and is sent verbatim.
func (c *Client) InstallAssets(ctx context.Context, assets []byte) error {
	return c.postJSON(ctx, "/v1/assets/install", json.RawMessage(assets), nil)
}

// PushAssets uploads a worker's exported calibration assets for one
// device to a coordinator's replicated vault
// (POST /v1/workers/assets). epoch is the device's asset-mutation
// counter at export time, so the coordinator can drop stale replays.
func (c *Client) PushAssets(ctx context.Context, workerID, device string, epoch uint64, assets []byte) error {
	body := struct {
		ID     string          `json:"id"`
		Device string          `json:"device"`
		Epoch  uint64          `json:"epoch"`
		Assets json.RawMessage `json:"assets"`
	}{ID: workerID, Device: device, Epoch: epoch, Assets: assets}
	return c.postJSON(ctx, "/v1/workers/assets", body, nil)
}

// PostJSON POSTs an arbitrary JSON body to path and decodes a 200 into
// out (nil discards it) — the extension point coordinator peer
// replication rides, so internal gossip reuses this client's
// transport, body limits, and error taxonomy instead of hand-rolling
// HTTP. Prefer the typed methods for any public wire operation.
func (c *Client) PostJSON(ctx context.Context, path string, in, out any) error {
	return c.postJSON(ctx, path, in, out)
}

// postJSON marshals in (nil means an empty body), POSTs it, and
// decodes a 200 into out (nil discards the body). Non-200s decode into
// typed errors.
func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	data, resp, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: parsing %s response: %w", path, err)
	}
	return nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	data, resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: parsing %s response: %w", path, err)
	}
	return nil
}

// do performs one HTTP round trip and reads the (size-capped) body.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader) ([]byte, *http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody))
	if err != nil {
		return nil, nil, err
	}
	return data, resp, nil
}

// parseRetryAfter reads a whole-seconds Retry-After header (the only
// form this surface emits); absent or malformed values yield 0.
func parseRetryAfter(h http.Header) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

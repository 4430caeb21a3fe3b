// Package client is the typed Go client for the dlrmperf serving
// surface — the single blessed way to talk to a worker
// (internal/serve) or a coordinator (internal/cluster), which
// re-exports the worker wire surface. It owns the request encoding,
// response decoding, body-size limits, and the one reader of a
// refusal, so no consumer — coordinator fan-out, load generator, e2e
// tests — hand-rolls its own status switch.
//
// Every answer but 200 returns as the *serve.StatusError the server
// wrote: its status, its code and message, and its Retry-After hint
// parsed (0 when none was sent). Select on Status and Code:
//
//	429 queue_full, tenant_limited  -> slow down for RetryAfter
//	503 draining, no_workers        -> retry elsewhere or after RetryAfter
//	502 worker_failed               -> the coordinator's routing gave up
//	400 bad_request, bad_priority, batch_too_large, bad_grid, ...
//
// A body that is not the envelope decodes as code "unknown". Transport
// failures (dial, broken stream) surface as the underlying *url.Error —
// a different failure class than a server that answered.
//
// Every call takes the caller's ctx, so the package is held to the
// ctxflow analyzer: minting a fresh context would detach a call from
// the caller's deadline.
//
//lint:ctxflow
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
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

// ErrBodyTooLarge is what a response past the client's body cap
// (defaultMaxBodyBytes) unwraps to, whatever its status was.
var ErrBodyTooLarge = errors.New("client: response body too large")

// Client talks to one server base URL.
type Client struct {
	base string
	// url is base parsed once, so that a call fills in a path instead of
	// parsing a URL; urlErr is what an unparsable base fails every call
	// with.
	url     *url.URL
	urlErr  error
	hc      *http.Client
	maxBody int64 // defaultMaxBodyBytes; tests lower it
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

// New returns a client for the server at base (scheme://host[:port],
// trailing slash tolerated).
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      defaultHTTPClient,
		maxBody: defaultMaxBodyBytes,
	}
	c.url, c.urlErr = url.Parse(c.base)
	for _, o := range opts {
		o(c)
	}
	return c
}

// Predict submits one request on the non-blocking admission path
// (POST /v1/predict). A 429 surfaces as a *serve.StatusError with the
// server's Retry-After hint. Rows the server computed but failed
// (validation, deadline) return with err == nil and Result.Error set —
// an application-level verdict, not a transport failure.
//
// Every row a bench client or a coordinator hop sends goes through it
// or PredictBatchInto.
//
//lint:hotpath root
func (c *Client) Predict(ctx context.Context, req serve.Request) (serve.Result, error) {
	const path = "/v1/predict"
	buf, err := c.exchange(ctx, http.MethodPost, path, serve.AppendRequest(make([]byte, 0, 128), &req))
	if err != nil {
		return serve.Result{}, err
	}
	defer buf.Release()
	row, err := serve.UnmarshalResult(buf.Bytes())
	if err != nil {
		return serve.Result{}, parseError(path, err)
	}
	return row, nil
}

// PredictBatchInto submits a request list on the blocking admission
// path (POST /v1/predict/batch) and decodes the response into v,
// normally a *serve.Report: the one report shape of a worker and a
// coordinator alike, parsed by the row codec. A *serve.Report is
// replaced, not merged into: nothing it held before the call survives.
// Any other v is decoded by encoding/json.
//
//lint:hotpath root
func (c *Client) PredictBatchInto(ctx context.Context, reqs []serve.Request, v any) error {
	const path = "/v1/predict/batch"
	rep, ok := v.(*serve.Report)
	if !ok {
		return c.postJSON(ctx, path, reqs, v)
	}
	buf, err := c.exchange(ctx, http.MethodPost, path, serve.AppendRequests(make([]byte, 0, requestsSizeHint(len(reqs))), reqs))
	if err != nil {
		return err
	}
	defer buf.Release()
	if *rep, err = serve.UnmarshalReport(buf.Bytes()); err != nil {
		return parseError(path, err)
	}
	return nil
}

// requestsSizeHint is the encoded size of n typical requests.
func requestsSizeHint(n int) int { return 2 + 96*n }

// Explore runs a design-space sweep (POST /v1/explore).
//
//lint:allow unlinked HTTP e2e surface: the explore e2e suites POST /v1/explore through it
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
	buf, resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	defer buf.Release()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return Health{}, decodeError(resp, buf.Bytes())
	}
	if err := json.Unmarshal(buf.Bytes(), &h); err != nil {
		return Health{}, parseError("/healthz", err)
	}
	return h, nil
}

// Scenarios lists the server's registered scenario names.
//
//lint:allow unlinked HTTP e2e surface: the e2e suites GET /v1/scenarios through it
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
	return c.postJSON(ctx, "/v1/workers/register", serve.Registration{ID: id, URL: url}, nil)
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
	return c.postJSON(ctx, "/v1/workers/assets", serve.AssetPush{ID: workerID, Device: device, Epoch: epoch, Assets: assets}, nil)
}

// PostJSON POSTs an arbitrary JSON body to path and decodes a 200 into
// out (nil discards it) — the extension point coordinator peer
// replication rides, so internal gossip reuses this client's
// transport, body limits, and refusal reader instead of hand-rolling
// HTTP. Prefer the typed methods for any public wire operation.
func (c *Client) PostJSON(ctx context.Context, path string, in, out any) error {
	return c.postJSON(ctx, path, in, out)
}

// postJSON marshals in (nil means an empty body; a request list goes
// through the row codec), POSTs it, and decodes a 200 into out (nil
// discards the body). A non-200 returns as its refusal.
//
//lint:hotpath stop the encoding/json fallback for a batch decoded into anything but a *serve.Report
func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	var body []byte
	switch in := in.(type) {
	case nil:
	case []serve.Request:
		body = serve.AppendRequests(make([]byte, 0, requestsSizeHint(len(in))), in)
	default:
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return c.roundTrip(ctx, http.MethodPost, path, body, out)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.roundTrip(ctx, http.MethodGet, path, nil, out)
}

// roundTrip is one exchange decoded into out with encoding/json.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, out any) error {
	buf, err := c.exchange(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer buf.Release()
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return parseError(path, err)
	}
	return nil
}

// parseError and bodyTooLarge build the error of an exchange that
// failed, off the steady-state path.
//
//lint:hotpath stop builds the error of an unparsable body
func parseError(path string, err error) error {
	return fmt.Errorf("client: parsing %s response: %w", path, err)
}

// bodyTooLarge is the error of a body past its size limit.
//
//lint:hotpath stop builds the error of an oversized body
func bodyTooLarge(method, path string, status int, limit int64) error {
	return fmt.Errorf("%w: %s %s answered %d with more than the %d-byte cap", ErrBodyTooLarge, method, path, status, limit)
}

// exchange performs one HTTP round trip and returns the body of a 200
// in a pooled buffer the caller Releases; any other status comes back
// as its refusal.
func (c *Client) exchange(ctx context.Context, method, path string, body []byte) (*serve.Buffer, error) {
	buf, resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer buf.Release()
		return nil, decodeError(resp, buf.Bytes())
	}
	return buf, nil
}

// jsonContentType is shared by every request: the transport only reads
// a request's header values.
var jsonContentType = []string{"application/json"}

// do performs one HTTP round trip and reads the (size-capped) body,
// whatever the status, into a pooled buffer the caller Releases. The
// request is assembled from the base URL parsed at New rather than
// through http.NewRequest, which would parse it again on every call; it
// carries GetBody, so the transport can still replay the body when it
// finds that the idle connection it picked had been closed.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*serve.Buffer, *http.Response, error) {
	if c.urlErr != nil {
		return nil, nil, c.urlErr
	}
	u := *c.url
	u.Path += path //lint:allow hotpath a base URL mounted at the root has an empty Path, and joining onto "" allocates nothing
	if u.RawPath != "" {
		u.RawPath += path //lint:allow hotpath set only for a base path that needs escaping, which no server of this module has
	}
	req := &http.Request{
		Method: method, URL: &u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 1),
	}
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	resp, err := c.hc.Do(req.WithContext(ctx))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	buf := serve.GetBuffer()
	tooLarge, err := buf.ReadBounded(resp.Body, c.maxBody, resp.ContentLength)
	switch {
	case err != nil:
	case tooLarge:
		err = bodyTooLarge(method, path, resp.StatusCode, c.maxBody)
	default:
		return buf, resp, nil
	}
	buf.Release()
	return nil, nil, err
}

// decodeError is the one reader of a refusal: the *serve.StatusError
// of one non-200 response, with its Retry-After hint parsed. A body
// that isn't the HTTPError envelope still produces a usable refusal,
// code "unknown", with a bounded raw snippet as the message.
//
//lint:hotpath stop builds the refusal of a non-200 response
func decodeError(resp *http.Response, body []byte) error {
	e := &serve.StatusError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header)}
	if err := json.Unmarshal(body, &e.HTTPError); err != nil || e.Code == "" {
		e.HTTPError = serve.HTTPError{Code: "unknown", Message: string(body[:min(len(body), 256)])}
	}
	return e
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

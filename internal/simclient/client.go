// Package simclient is the Go client for the hidisc-serve API: submit
// single jobs or batch matrices, stream NDJSON batch results, and
// decode the server's structured error bodies (including Retry-After
// backoff hints and fault snapshots) into typed errors. Setting
// Client.Retry to a Backoff policy makes the client ride through
// server restarts, 429 shedding, and 503 drains instead of failing
// the caller's figure.
package simclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"hidisc/internal/experiments"
	"hidisc/internal/simserver"
	"hidisc/internal/tracing"
)

// Client talks to one hidisc-serve instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Simulations can run
	// for minutes, so the default carries no overall timeout; bound
	// requests with a context instead.
	HTTPClient *http.Client
	// Retry, when non-nil, makes Run, Batch, Measurements, Healthz,
	// and Metrics ride through transient failures — server restarts,
	// 429 shedding (Retry-After honoured), 503 drains — under the
	// policy's bounded, jittered schedule (see Backoff for the full
	// retryable-status table). Safe because the API is idempotent:
	// simulations are deterministic and content-addressed, and a
	// restarted server answers completed jobs from its result store.
	// Nil means every failure surfaces immediately.
	Retry *Backoff
	// Header holds static headers applied to every request (the
	// per-request X-Request-Id travels via the context instead; see
	// simserver.ContextWithRequestID).
	Header http.Header
}

// New returns a client for the given base URL.
func New(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

// Options bundles the client configuration every consumer of the API
// shares — the HTTP transport (timeouts live on it), the retry policy,
// and static headers. It exists so the coordinator's per-worker
// clients and hidisc-bench's -remote client are built from one config
// value instead of drifting duplicated literals; construct clients
// from it with NewWithOptions.
type Options struct {
	// HTTPClient is the transport; nil means http.DefaultClient
	// (deliberately no overall timeout — simulations can run for
	// minutes; bound requests with a context).
	HTTPClient *http.Client
	// Retry is the backoff policy; nil disables retries.
	Retry *Backoff
	// Header holds static headers applied to every request.
	Header http.Header
}

// DefaultOptions is the production client configuration: the default
// transport and DefaultBackoff. The coordinator strips Retry from it
// (it owns re-routing itself, see Backoff's retryable-status table)
// but shares everything else.
func DefaultOptions() Options {
	return Options{Retry: DefaultBackoff()}
}

// NewWithOptions returns a client for base configured by o.
func NewWithOptions(base string, o Options) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(base, "/"),
		HTTPClient: o.HTTPClient,
		Retry:      o.Retry,
		Header:     o.Header,
	}
}

// withRetry runs op under the client's retry policy, if any.
func (c *Client) withRetry(ctx context.Context, op func() error) error {
	if c.Retry == nil {
		return op()
	}
	return c.Retry.Do(ctx, op)
}

func (c *Client) httpc() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx server response in typed form.
type APIError struct {
	Status     int
	RetryAfter time.Duration // backoff hint on 429, else 0
	Wire       simserver.WireError
}

func (e *APIError) Error() string {
	return fmt.Sprintf("hidisc-serve: %s: %s", e.Wire.Kind, e.Wire.Message)
}

// Overloaded reports whether the server shed this request (retry after
// RetryAfter).
func (e *APIError) Overloaded() bool { return e.Status == http.StatusTooManyRequests }

// do issues one request with a JSON body (none when body is nil) and
// decodes error responses.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range c.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	// Propagate the caller's request ID so a job forwarded by the
	// coordinator logs under one ID on both hops.
	if id := simserver.RequestIDFrom(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	// When the caller is traced, open a client span for the outbound
	// call and inject its context as the traceparent header, so the
	// receiving server's span tree parents under this call. Untraced
	// callers pay exactly this one branch.
	csp := tracing.SpanFrom(ctx).Child("client " + method + " " + path)
	if csp != nil {
		csp.SetAttr("url", c.BaseURL)
		req.Header.Set("traceparent", csp.Traceparent())
	}
	resp, err := c.httpc().Do(req)
	if csp != nil {
		if err != nil {
			csp.SetAttr("error", err.Error())
		} else {
			csp.SetAttr("status", strconv.Itoa(resp.StatusCode))
		}
		csp.End()
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

func decodeError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	var body simserver.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&body); err != nil {
		apiErr.Wire = simserver.WireError{
			Status: resp.StatusCode, Kind: "http",
			Message: fmt.Sprintf("HTTP %d with undecodable body: %v", resp.StatusCode, err),
		}
		return apiErr
	}
	apiErr.Wire = body.Err
	return apiErr
}

// maxBody bounds the response bodies the client reads whole.
const maxBody = 10 << 20

// readBody reads a response body in one allocation when its length is
// declared, refusing bodies over maxBody.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 {
		if n > maxBody {
			return nil, fmt.Errorf("body of %d bytes exceeds %d", n, maxBody)
		}
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err == nil && len(body) > maxBody {
		err = fmt.Errorf("body exceeds %d bytes", maxBody)
	}
	return body, err
}

// Run submits one job and returns the server's response with the
// measurement still in its canonical raw encoding. The request is
// encoded by simserver.AppendJobRequest; the answer is read once and
// parsed by the envelope's fixed shape (simserver.ParseJobResponse),
// so Measurement aliases it unscanned.
// With Retry set, the whole submission — connection, response, body —
// is retried per the policy, so a server restart mid-request costs a
// delay, not the job.
func (c *Client) Run(ctx context.Context, jr simserver.JobRequest) (simserver.JobResponse, error) {
	req, err := simserver.AppendJobRequest(make([]byte, 0, len(jr.Hier)+128), jr)
	if err != nil {
		return simserver.JobResponse{}, err
	}
	var out simserver.JobResponse
	err = c.withRetry(ctx, func() error {
		resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := readBody(resp)
		if err == nil {
			out, err = simserver.ParseJobResponse(body)
		}
		if err != nil {
			return fmt.Errorf("decoding job response: %w", err)
		}
		return nil
	})
	if err != nil {
		return simserver.JobResponse{}, err
	}
	return out, nil
}

// BatchStream submits a batch and invokes fn for every NDJSON item as
// it arrives (completion order, not submission order). fn returning an
// error aborts the stream.
//
// BatchStream is deliberately single-shot even with Retry set: a
// retried stream would replay items fn has already seen. Use Batch (or
// Measurements), which absorbs replays by index, for retry semantics.
func (c *Client) BatchStream(ctx context.Context, br simserver.BatchRequest, fn func(simserver.BatchItem) error) error {
	body, err := json.Marshal(br)
	if err != nil {
		return err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/batch", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item simserver.BatchItem
		if err := json.Unmarshal(line, &item); err != nil {
			return fmt.Errorf("decoding batch item: %w", err)
		}
		if err := fn(item); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Batch submits a batch and collects every item, reassembled into
// submission order. Per-job failures are returned as *APIError values
// in errs (indexed like items); the call itself fails only on
// transport or protocol errors.
//
// With Retry set, a failed attempt re-submits the whole batch: the
// server is content-addressed, so jobs that completed before a crash
// are answered from its cache or durable store instead of being
// re-simulated, and replayed items simply overwrite by index (results
// are deterministic, so a replay is byte-identical). That makes a
// kill -9 mid-batch cost one backoff delay plus only the unfinished
// jobs' simulation time.
func (c *Client) Batch(ctx context.Context, br simserver.BatchRequest) (items []simserver.BatchItem, errs []error, err error) {
	got := map[int]simserver.BatchItem{}
	err = c.withRetry(ctx, func() error {
		return c.BatchStream(ctx, br, func(it simserver.BatchItem) error {
			got[it.Index] = it
			return nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	for _, it := range got {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Index < items[j].Index })
	errs = make([]error, len(items))
	for i, it := range items {
		if it.Error != nil {
			errs[i] = &APIError{Status: it.Error.Status, Wire: *it.Error}
		}
	}
	return items, errs, nil
}

// Measurements runs a batch and decodes every measurement, failing on
// the first per-job error. The items' raw encodings are also returned
// for byte-identity checks against local runs.
func (c *Client) Measurements(ctx context.Context, br simserver.BatchRequest) ([]experiments.Measurement, []simserver.BatchItem, error) {
	items, errs, err := c.Batch(ctx, br)
	if err != nil {
		return nil, nil, err
	}
	ms := make([]experiments.Measurement, len(items))
	for i, it := range items {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("job %d: %w", i, errs[i])
		}
		if ms[i], err = it.Decode(); err != nil {
			return nil, nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	return ms, items, nil
}

// Healthz probes liveness (retried under the client's policy, so it
// doubles as "wait for the server to come back").
func (c *Client) Healthz(ctx context.Context) error {
	return c.withRetry(ctx, func() error {
		resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
}

// Traces fetches the server's span ring (GET /v1/traces NDJSON),
// optionally filtered by request ID. An empty slice means the server
// has no matching spans (or tracing is off) — not an error.
func (c *Client) Traces(ctx context.Context, requestID string) ([]tracing.Span, error) {
	path := "/v1/traces"
	if requestID != "" {
		path += "?request=" + url.QueryEscape(requestID)
	}
	var spans []tracing.Span
	err := c.withRetry(ctx, func() error {
		resp, err := c.do(ctx, http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		spans = spans[:0]
		dec := json.NewDecoder(resp.Body)
		for {
			var s tracing.Span
			if err := dec.Decode(&s); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
			spans = append(spans, s)
		}
	})
	if err != nil {
		return nil, err
	}
	return spans, nil
}

// Metrics fetches the server counters.
func (c *Client) Metrics(ctx context.Context) (simserver.MetricsSnapshot, error) {
	var m simserver.MetricsSnapshot
	err := c.withRetry(ctx, func() error {
		resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		m = simserver.MetricsSnapshot{}
		return json.NewDecoder(resp.Body).Decode(&m)
	})
	if err != nil {
		return simserver.MetricsSnapshot{}, err
	}
	return m, nil
}

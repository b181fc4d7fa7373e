package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// HopHeader marks a request as already forwarded once. A node receiving
// it serves locally no matter what its ring says, so a placement
// disagreement between two nodes (mid-rolling-restart, a divergent
// -peers list) degrades to one extra hop — never a loop.
const HopHeader = "X-Xbcd-Forwarded"

// Handler wraps the single-node service handler in the ownership gate.
// Key-addressed routes (submit, job get, the event stream, sweeps) are
// intercepted and either served locally or proxied to the owner;
// /healthz and /metrics are decorated with ring state; everything else
// passes through untouched.
func (c *Cluster) Handler(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit(inner))
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob(inner))
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleJob(inner))
	mux.HandleFunc("POST /v1/sweeps", c.handleSweep(inner))
	mux.HandleFunc("GET /healthz", c.handleHealth(inner))
	mux.HandleFunc("GET /metrics", c.handleMetrics(inner))
	mux.Handle("/", inner)
	return mux
}

// serveInner replays the request against the local service handler with
// the (possibly already consumed) body restored.
func serveInner(inner http.Handler, w http.ResponseWriter, r *http.Request, body []byte) {
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	inner.ServeHTTP(w, r)
}

// handleSubmit is the ownership gate on POST /v1/jobs: the spec's
// content key picks the owning node; a non-owner proxies, and an
// unreachable owner degrades to executing locally (counted, never an
// error — the result is bit-identical wherever it runs). A forward that
// fails because the request was cancelled answers nothing: the client
// has gone, and the owner is not at fault.
func (c *Cluster) handleSubmit(inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HopHeader) != "" {
			inner.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		var spec jobspec.Spec
		if json.Unmarshal(body, &spec) != nil {
			// Malformed specs go to the local service for its canonical
			// 400 rendering (it also catches unknown fields).
			serveInner(inner, w, r, body)
			return
		}
		key, err := spec.Key()
		if err != nil {
			serveInner(inner, w, r, body)
			return
		}
		owner, local := c.Owner(key)
		if local {
			serveInner(inner, w, r, body)
			return
		}
		if c.forward(w, r, owner, body, submitSkip) || r.Context().Err() != nil {
			return // relayed, or the client left: the owner did not fail
		}
		c.fallbacks.Add(1)
		serveInner(inner, w, r, body)
	}
}

// handleJob is the ownership gate on GET /v1/jobs/{id} and its event
// stream: the id is the content key. A non-owner proxies; if the owner
// is unreachable — or does not know the job, which happens when a
// fallback executed it elsewhere — the local registry gets its chance.
func (c *Cluster) handleJob(inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HopHeader) != "" {
			inner.ServeHTTP(w, r)
			return
		}
		owner, local := c.Owner(r.PathValue("id"))
		if local {
			inner.ServeHTTP(w, r)
			return
		}
		relayed, reachable := c.forwardStatus(w, r, owner, nil, jobSkip)
		if relayed || r.Context().Err() != nil {
			return // relayed, or the client left: the owner did not fail
		}
		if !reachable {
			c.fallbacks.Add(1)
		}
		inner.ServeHTTP(w, r)
	}
}

// submitSkip lists the owner responses a submit forward does not relay:
// the owner is draining or dead behind another proxy, so local execution
// is the degraded-but-correct answer.
func submitSkip(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	default:
		return false
	}
}

// jobSkip additionally skips 404: the owner is authoritative for its
// segment, but a job executed here under fallback lives only here.
func jobSkip(status int) bool {
	return status == http.StatusNotFound || submitSkip(status)
}

// forward proxies the request to owner, returning whether the owner's
// response was relayed to the client. Nothing is written unless it
// reports true.
func (c *Cluster) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte, skip func(int) bool) bool {
	relayed, _ := c.forwardStatus(w, r, owner, body, skip)
	return relayed
}

// forwardStatus is forward with the reachability of the owner broken
// out: (false, true) means the owner answered but the response was
// skipped (e.g. a 404 the caller wants to retry locally).
func (c *Cluster) forwardStatus(w http.ResponseWriter, r *http.Request, owner string, body []byte, skip func(int) bool) (relayed, reachable bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, owner+r.URL.RequestURI(), rd)
	if err != nil {
		return false, false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(HopHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return false, false
	}
	defer func() {
		//xbc:ignore errdrop proxied response is relayed or deliberately dropped; close has nothing to add
		resp.Body.Close()
	}()
	if skip != nil && skip(resp.StatusCode) {
		return false, true
	}
	c.forwards.Add(1)
	//xbc:ignore nondeterm http.Header copy is order-insensitive; each key's value slice keeps its order
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	streamCopy(w, resp.Body)
	return true, true
}

// streamCopy relays a response body chunk by chunk, flushing after each
// chunk so proxied NDJSON event streams stay live end to end.
func streamCopy(w http.ResponseWriter, body io.Reader) {
	flusher, canFlush := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client gone
			}
			if canFlush {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleHealth decorates the local /healthz with the ring state.
func (c *Cluster) handleHealth(inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := newBufferResponse()
		inner.ServeHTTP(rec, r)
		var h api.Health
		if err := json.Unmarshal(rec.body.Bytes(), &h); err != nil {
			rec.replay(w) // not the shape we know; pass it through untouched
			return
		}
		h.Cluster = c.Health()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.status)
		if err := json.NewEncoder(w).Encode(h); err != nil {
			return // client gone
		}
	}
}

// handleMetrics appends the cluster counters to the local /metrics.
func (c *Cluster) handleMetrics(inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := newBufferResponse()
		inner.ServeHTTP(rec, r)
		if rec.status != http.StatusOK {
			rec.replay(w)
			return
		}
		var b strings.Builder
		b.Write(rec.body.Bytes())
		c.renderMetrics(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte(b.String())); err != nil {
			return // client gone
		}
	}
}

// writeJSONError emits the api.Error body every non-2xx response uses.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(api.Error{Error: msg}); err != nil {
		return // client gone
	}
}

// bufferResponse is a minimal in-process http.ResponseWriter: the
// cluster layer uses it to consult the local service handler (healthz,
// metrics, locally owned sweep cells) without a network round trip.
type bufferResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBufferResponse() *bufferResponse {
	return &bufferResponse{header: make(http.Header), status: http.StatusOK}
}

func (b *bufferResponse) Header() http.Header  { return b.header }
func (b *bufferResponse) WriteHeader(code int) { b.status = code }
func (b *bufferResponse) Write(p []byte) (int, error) {
	return b.body.Write(p)
}

// replay copies the recorded response onto a real writer.
func (b *bufferResponse) replay(w http.ResponseWriter) {
	//xbc:ignore nondeterm http.Header copy is order-insensitive; each key's value slice keeps its order
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(b.status)
	if _, err := w.Write(b.body.Bytes()); err != nil {
		return // client gone
	}
}

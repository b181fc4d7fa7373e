package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"xbc/internal/frontend"
	"xbc/internal/interval"
	"xbc/internal/sampling"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// Trace headers. The client stamps them on every call of a traced request;
// the span middleware reads them, and cluster forwarding carries them to
// the owner because it copies request headers.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// addrBook maps node host names (node-0, node-1, ...) to the loopback
// addresses their listeners got. Nodes are named rather than addressed so
// that ring placement, which hashes node names, is the same in every run.
type addrBook struct {
	mu sync.Mutex
	m  map[string]string
}

func (a *addrBook) set(host, addr string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.m == nil {
		a.m = make(map[string]string)
	}
	a.m[host] = addr
}

// transport dials named nodes at their current address.
func (a *addrBook) transport() *http.Transport {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, hostport string) (net.Conn, error) {
			if host, _, err := net.SplitHostPort(hostport); err == nil {
				a.mu.Lock()
				real, ok := a.m[host]
				a.mu.Unlock()
				if ok {
					hostport = real
				}
			}
			return d.DialContext(ctx, network, hostport)
		},
		DisableCompression: true,
	}
}

// client is the benchmark's one closed-loop client: it sends a call only
// after the previous one completed, so it holds one keep-alive connection
// per node.
type client struct {
	hc *http.Client
	tr *http.Transport
	// req and root identify the traced request in progress and its span;
	// 0 when untraced.
	req, root int64
	// calls counts HTTP calls while counting is on (the timed phase).
	calls    int
	counting bool
}

func newClient(book *addrBook) *client {
	tr := book.transport()
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

// call sends one request with in as its JSON body (none when nil) and
// decodes a 2xx response body into out (discarded when nil).
func (c *client) call(method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	c.stamp(req)
	if c.counting {
		c.calls++
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		// A refusal (429, 503) fails the request like any other error.
		msg, _ := io.ReadAll(resp.Body) // diagnostics only
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s %s: decoding: %w", method, url, err)
		}
	}
	// Read to EOF so the connection goes back to the pool.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// submit posts one job.
func (c *client) submit(base string, spec jobspec.Spec) (api.SubmitResponse, error) {
	var sr api.SubmitResponse
	err := c.call(http.MethodPost, base+"/v1/jobs", spec, &sr)
	return sr, err
}

// sweep posts one sweep grid.
func (c *client) sweep(base string, req api.SweepRequest) (api.SweepResponse, error) {
	var sr api.SweepResponse
	err := c.call(http.MethodPost, base+"/v1/sweeps", req, &sr)
	return sr, err
}

// result fetches a job's terminal state. A job that was not answered from
// cache is awaited on its event stream first, which returns the moment the
// job turns terminal; polling would quantise latency to the poll period.
func (c *client) result(base, id, status string) (api.Job, error) {
	if status != api.SubmitCached {
		if err := c.await(base, id); err != nil {
			return api.Job{}, err
		}
	}
	var j api.Job
	if err := c.call(http.MethodGet, base+"/v1/jobs/"+id, nil, &j); err != nil {
		return api.Job{}, err
	}
	if j.State != "done" {
		return j, fmt.Errorf("job %s ended %s: %s", id, j.State, j.Error)
	}
	return j, nil
}

// await reads a job's event stream until the server closes it, which it
// does once the job is terminal.
func (c *client) await(base, id string) error {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	c.stamp(req)
	if c.counting {
		c.calls++
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events for %s: %s", id, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev api.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("events for %s: %w", id, err)
		}
	}
}

// scrape reads and parses one node's /metrics.
func (c *client) scrape(base string) (map[string]float64, error) {
	resp, err := c.hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(b))
}

// stamp sets the trace headers of a traced request's call.
func (c *client) stamp(r *http.Request) {
	if c.req != 0 {
		r.Header.Set(hdrReq, strconv.FormatInt(c.req, 10))
		r.Header.Set(hdrParent, strconv.FormatInt(c.root, 10))
	}
}

// resultView is the part of a job that the determinism contract fixes:
// everything but identity, timing and whether a snapshot was restored.
// Two results are equal when their encodings are byte-identical.
type resultView struct {
	Metrics     *frontend.Metrics  `json:"metrics"`
	Estimate    *interval.Estimate `json:"estimate,omitempty"`
	Fidelity    string             `json:"fidelity"`
	ErrorBound  map[string]float64 `json:"error_bound,omitempty"`
	SampledUops uint64             `json:"sampled_uops,omitempty"`
}

// servedView encodes a served job's result.
func servedView(j api.Job) []byte {
	return encodeView(resultView{j.Metrics, j.Estimate, j.Fidelity, j.ErrorBound, j.SampledUops})
}

// executedView encodes a result computed in-process.
func executedView(r jobspec.Result) []byte {
	m := r.Metrics
	return encodeView(resultView{&m, r.Estimate, r.EffectiveFidelity(), r.ErrorBound, r.SampledUops})
}

// sampledView encodes a direct sampling.Run result as the service would
// serve it for the given fidelity rung.
func sampledView(r sampling.Result, fidelity string) []byte {
	m := r.Metrics
	return encodeView(resultView{&m, nil, fidelity, r.ErrorBound, r.SimulatedUops})
}

func encodeView(v resultView) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Metrics that JSON cannot encode could not have been served
		// either; make the view unequal to every real one.
		return []byte("unencodable: " + err.Error())
	}
	return b
}

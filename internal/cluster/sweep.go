package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"xbc/internal/planner"
	"xbc/internal/planner/grid"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// scatterParallel bounds how many owner requests one distributed sweep
// has in flight at once.
const scatterParallel = 16

// cellOut is one scattered cell's gathered outcome.
type cellOut struct {
	ok     bool // submitted somewhere; sub and plan are valid
	sub    api.SubmitResponse
	plan   api.PlanReport // per-cell: planned=1, exactly one disposition
	node   string         // which node served the cell
	errMsg string         // set when !ok (owner refused: queue full, draining)
	status int            // HTTP status to surface when !ok
}

// handleSweep is the distributed sweep: the coordinator expands the grid
// and scatters it through planner.Run exactly like a single node plans
// one — duplicates collapse before any network traffic — so each unique
// cell goes once to its owning node as a single-cell sub-sweep (the hop
// header makes the owner execute rather than re-scatter), isolated like
// any other cell. The per-cell plan accounting is gathered into one
// merged response. An unreachable owner's cells fall back to local
// execution, counted, never an error; a cell that panics, or that the
// request's cancellation stops, is refused. With ?stream=ndjson the
// response is a JSON-lines stream: one line per unique cell as it lands,
// then a final line carrying the merged SweepResponse.
func (c *Cluster) handleSweep(inner http.Handler) http.HandlerFunc {
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
		var req api.SweepRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			serveInner(inner, w, r, body) // canonical 400 from the service
			return
		}
		cells, err := grid.Expand(grid.Grid{
			Frontends:  req.Frontends,
			Workloads:  req.Workloads,
			Budgets:    req.Budgets,
			Fidelities: req.Fidelities,
			Uops:       req.Uops,
			Check:      req.Check,
			Core:       req.Core,
		})
		if err != nil {
			serveInner(inner, w, r, body)
			return
		}

		var stream *ndjsonStream
		if r.URL.Query().Get("stream") == "ndjson" {
			stream = newNDJSONStream(w)
		}

		// Scatter: every unique cell goes to its owner, on the planner's
		// bounded pool; each emits its stream line as it lands.
		pcells := make([]planner.Cell, len(cells))
		for i, cell := range cells {
			pcells[i] = planner.Cell{
				Key:      cell.Key,
				Locality: cell.Locality,
				Name:     "sweep/" + cell.Spec.Label() + "/" + cell.Key,
				Run: func(ctx context.Context) (any, error) {
					out := c.sweepCell(ctx, inner, cell)
					if stream != nil {
						stream.cell(out)
					}
					return out, nil
				},
			}
		}
		results, plan := planner.Run(r.Context(), pcells, planner.Options{Parallel: scatterParallel})

		// Gather: merge the per-cell accounting under the coordinator's
		// dedup numbers, so the distributed report reads exactly like a
		// single-node one. A cell the pool refused (a panic, or the drain
		// of a cancelled request) emits its one stream line here.
		report := api.PlanReport{Planned: plan.Planned, Deduped: plan.Deduped}
		firstErr, failStatus := "", 0
		jobs := make([]api.SubmitResponse, 0, len(cells))
		gathered := make(map[string]bool, len(cells)-plan.Deduped)
		for i, res := range results {
			o, ran := res.Value.(cellOut)
			if !ran {
				o = c.refused(res)
			}
			if o.ok {
				jobs = append(jobs, o.sub)
			}
			if gathered[cells[i].Key] {
				continue
			}
			gathered[cells[i].Key] = true
			if !ran && stream != nil {
				stream.cell(o)
			}
			if !o.ok {
				report.Unsubmitted++
				if firstErr == "" {
					firstErr, failStatus = o.errMsg, o.status
				}
				continue
			}
			report.CacheHits += o.plan.CacheHits
			report.StoreHits += o.plan.StoreHits
			report.Coalesced += o.plan.Coalesced
			report.Simulated += o.plan.Simulated
		}
		resp := api.SweepResponse{Jobs: jobs, Plan: &report, Error: firstErr}
		if stream != nil {
			stream.done(resp)
			return
		}
		status := http.StatusAccepted
		if failStatus != 0 {
			status = failStatus
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			return // client gone
		}
	}
}

// refused is the gathered form of a cell that produced no outcome: it
// panicked, or the request was cancelled before it started.
func (c *Cluster) refused(res planner.Result) cellOut {
	if res.Err != nil {
		return cellOut{errMsg: res.Err.Error(), status: http.StatusInternalServerError, node: c.self}
	}
	return c.cancelled()
}

// cancelled refuses a cell because the client has gone: nothing runs on
// behalf of a cancelled request.
func (c *Cluster) cancelled() cellOut {
	return cellOut{errMsg: "sweep cancelled", status: http.StatusServiceUnavailable, node: c.self}
}

// sweepCell routes one unique cell: remote owners get a single-cell
// sub-sweep; this node's cells (and any cell whose owner is
// unreachable) run through the local service handler in-process. A
// remote cell that fails because the request was cancelled is refused:
// the owner did not fail, the client left.
func (c *Cluster) sweepCell(ctx context.Context, inner http.Handler, cell grid.Cell) cellOut {
	body, err := json.Marshal(cellRequest(cell.Spec))
	if err != nil {
		return cellOut{errMsg: "encoding cell: " + err.Error(), status: http.StatusInternalServerError, node: c.self}
	}
	owner, local := c.Owner(cell.Key)
	if !local {
		if out, reachable := c.sweepCellRemote(ctx, owner, body); reachable {
			return out
		}
		if ctx.Err() != nil {
			return c.cancelled()
		}
		c.fallbacks.Add(1)
	}
	return c.sweepCellLocal(ctx, inner, body)
}

// cellRequest rebuilds the one-cell sweep request for a grid cell. The
// owner re-expands it to the identical canonical cell: Expand is
// deterministic and the axes carry everything the key hashes.
func cellRequest(spec jobspec.Spec) api.SweepRequest {
	req := api.SweepRequest{
		Frontends: []string{spec.Frontend},
		Workloads: []string{spec.Workload},
		Uops:      spec.Uops,
		Check:     spec.Check,
		Core:      spec.Core,
	}
	if spec.Budget != 0 {
		req.Budgets = []int{spec.Budget}
	}
	if spec.Fidelity != "" {
		req.Fidelities = []string{spec.Fidelity}
	}
	return req
}

// sweepCellRemote sends one cell to its owner. reachable=false means
// the owner is gone (transport error, 502/503/504) and the caller
// should fall back locally; a reachable owner's answer — success or
// refusal — is final, preserving single-owner execution per key.
func (c *Cluster) sweepCellRemote(ctx context.Context, owner string, body []byte) (out cellOut, reachable bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return cellOut{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return cellOut{}, false
	}
	defer func() {
		//xbc:ignore errdrop response fully read below; close has nothing left to fail
		resp.Body.Close()
	}()
	if submitSkip(resp.StatusCode) {
		return cellOut{}, false
	}
	c.forwards.Add(1)
	return decodeCell(resp.Body, resp.StatusCode, owner), true
}

// sweepCellLocal runs one cell through the local service handler
// in-process (no network hop for self-owned cells).
func (c *Cluster) sweepCellLocal(ctx context.Context, inner http.Handler, body []byte) cellOut {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return cellOut{errMsg: "building local request: " + err.Error(), status: http.StatusInternalServerError, node: c.self}
	}
	req.Header.Set("Content-Type", "application/json")
	rec := newBufferResponse()
	inner.ServeHTTP(rec, req)
	return decodeCell(bytes.NewReader(rec.body.Bytes()), rec.status, c.self)
}

// decodeCell reads a one-cell sweep response into the gathered form.
func decodeCell(body io.Reader, status int, node string) cellOut {
	var sr api.SweepResponse
	if err := json.NewDecoder(body).Decode(&sr); err != nil {
		return cellOut{errMsg: "decoding cell response: " + err.Error(), status: http.StatusBadGateway, node: node}
	}
	if sr.Error != "" || len(sr.Jobs) != 1 || sr.Plan == nil {
		msg := sr.Error
		if msg == "" {
			msg = "malformed one-cell sweep response"
		}
		if status < 400 {
			status = http.StatusBadGateway
		}
		return cellOut{errMsg: msg, status: status, node: node}
	}
	return cellOut{ok: true, sub: sr.Jobs[0], plan: *sr.Plan, node: node}
}

// ndjsonStream serializes the ?stream=ndjson JSON-lines responses.
type ndjsonStream struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	enc     *json.Encoder
	seq     int
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusAccepted)
	s := &ndjsonStream{w: w, enc: json.NewEncoder(w)}
	s.flusher, _ = w.(http.Flusher)
	return s
}

// cell emits one gathered-cell line.
func (s *ndjsonStream) cell(o cellOut) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := api.SweepEvent{Seq: s.seq, Node: o.node, Error: o.errMsg}
	s.seq++
	if o.ok {
		sub, plan := o.sub, o.plan
		ev.Job, ev.Plan = &sub, &plan
	}
	s.emitLocked(ev)
}

// done emits the final merged-response line.
func (s *ndjsonStream) done(resp api.SweepResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emitLocked(api.SweepEvent{Seq: s.seq, Done: true, Sweep: &resp})
}

func (s *ndjsonStream) emitLocked(ev api.SweepEvent) {
	if err := s.enc.Encode(ev); err != nil {
		return // client gone
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

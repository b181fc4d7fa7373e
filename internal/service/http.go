package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"xbc/internal/corpus"
	"xbc/internal/planner"
	"xbc/internal/planner/grid"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
	"xbc/internal/snapshot"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs             submit one jobspec.Spec
//	GET  /v1/jobs/{id}        job status + result
//	GET  /v1/jobs/{id}/events JSON-lines stream of lifecycle events
//	POST /v1/sweeps           fan a config grid out into jobs
//	GET  /healthz             liveness; flips to draining during drain
//	GET  /metrics             Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON encodes v with the given status. An encode failure after the
// header is sent cannot be reported to the client; the handler's work is
// done either way.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return
	}
}

// submitStatusCode maps a Submit error to its HTTP status.
func submitStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobspec.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, api.Error{Error: "decoding spec: " + err.Error()})
		return
	}
	j, status, err := s.Submit(spec)
	if err != nil {
		writeJSON(w, submitStatusCode(err), api.Error{Error: err.Error()})
		return
	}
	code := http.StatusAccepted
	if status == api.SubmitCached {
		code = http.StatusOK
	}
	writeJSON(w, code, api.SubmitResponse{ID: j.ID, Status: status})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, api.Error{Error: "unknown or evicted job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleEvents streams the job's lifecycle as JSON lines: the full event
// history first, then live transitions until the job is terminal or the
// client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, api.Error{Error: "unknown or evicted job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	for {
		evs, notify, terminal := j.EventsSince(idx)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return // client gone; nothing to clean up
			}
		}
		idx += len(evs)
		if canFlush {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		}
	}
}

// handleSweep plans the request grid before touching the queue: cells
// are expanded and canonicalized in deterministic order (frontends
// outer, workloads middle, budgets inner; one bad cell rejects the whole
// sweep at validation time), exact duplicates are collapsed onto their
// first occurrence, and the unique cells are submitted in trace-locality
// order so the corpus cache stays hot. Each unique cell's disposition —
// served by the result cache, adopted from the persistent store,
// attached to an in-flight job, or freshly enqueued — is accounted in
// the response's plan report and the sweep metrics. Only unique uncached
// cells ever reach a worker.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, api.Error{Error: "decoding sweep: " + err.Error()})
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
		writeJSON(w, http.StatusBadRequest, api.Error{Error: err.Error()})
		return
	}
	pcells := make([]planner.Cell, len(cells))
	for i, c := range cells {
		pcells[i] = planner.Cell{Key: c.Key, Locality: c.Locality}
	}
	plan := planner.NewPlan(pcells)
	report := api.PlanReport{Planned: len(cells), Deduped: plan.Deduped()}

	unique := plan.Unique()
	submitted := make(map[int]api.SubmitResponse, len(unique))
	for done, ui := range unique {
		j, outcome, err := s.submitKeyed(cells[ui].Norm, cells[ui].Key)
		if err != nil {
			// Mid-sweep failure (queue full, drain): already-accepted jobs
			// keep running. The response reports planned-vs-enqueued — the
			// jobs that made it in, a plan whose Unsubmitted counts every
			// unique cell that did not, and the error.
			report.Unsubmitted = len(unique) - done
			s.reg.sweep(report, true)
			writeJSON(w, submitStatusCode(err), api.SweepResponse{
				Jobs:  sweepJobs(plan, cells, submitted),
				Plan:  &report,
				Error: err.Error(),
			})
			return
		}
		submitted[ui] = api.SubmitResponse{ID: j.ID, Status: outcome.apiStatus()}
		switch outcome {
		case outcomeCacheHit:
			report.CacheHits++
		case outcomeStoreHit:
			report.StoreHits++
		case outcomeCoalesced:
			report.Coalesced++
		default:
			report.Simulated++
		}
	}
	s.reg.sweep(report, false)
	writeJSON(w, http.StatusAccepted, api.SweepResponse{
		Jobs: sweepJobs(plan, cells, submitted),
		Plan: &report,
	})
}

// sweepJobs lays the submitted unique cells back out in grid order, each
// duplicate aliasing its primary's job. On a partial failure only the
// grid positions whose primaries were submitted appear.
func sweepJobs(plan *planner.Plan, cells []grid.Cell, submitted map[int]api.SubmitResponse) []api.SubmitResponse {
	jobs := make([]api.SubmitResponse, 0, len(cells))
	for i := range cells {
		if sr, ok := submitted[plan.Primary(i)]; ok {
			jobs = append(jobs, sr)
		}
	}
	return jobs
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := api.Health{Status: "ok", Store: s.storeHealth()}
	if s.Draining() {
		h.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

// storeHealth summarizes the persistence layer for /healthz.
func (s *Server) storeHealth() string {
	switch {
	case s.persist != nil:
		return s.persist.health()
	case s.opts.StoreErr != "":
		return "unavailable: " + s.opts.StoreErr
	default:
		return ""
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	b.WriteString(s.reg.render(s.QueueDepth(), s.cache.Len()))
	const gens = "xbcd_corpus_generations_total"
	fmt.Fprintf(&b, "# HELP %s trace streams the process-wide corpus generated rather than cut from a kept stream or loaded from the store\n# TYPE %s counter\n%s %d\n",
		gens, gens, gens, corpus.Generations())
	if s.snap != nil {
		renderSnapshotMetrics(&b, s.snap.Stats())
	}
	if s.persist != nil {
		s.persist.renderMetrics(&b)
	}
	if _, err := w.Write([]byte(b.String())); err != nil {
		return // client gone
	}
}

// renderSnapshotMetrics appends the warm-state snapshot counters.
func renderSnapshotMetrics(b *strings.Builder, st snapshot.Stats) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("xbcd_snapshot_hits_total", "full runs that restored a warm-state snapshot", st.Hits)
	counter("xbcd_snapshot_misses_total", "snapshot lookups that found nothing", st.Misses)
	counter("xbcd_snapshot_saves_total", "warm-state snapshots captured", st.Saves)
	counter("xbcd_snapshot_decode_errors_total", "snapshot blobs dropped as corrupt or stale", st.DecodeErrors)
}

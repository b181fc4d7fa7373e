// Package api defines the JSON wire types of the xbcd simulation service.
// The request body of POST /v1/jobs is a jobspec.Spec verbatim; everything
// the server sends back lives here, so cmd/xbcctl and the tests decode
// exactly what internal/service encodes.
package api

import (
	"xbc/internal/frontend"
	"xbc/internal/interval"
	"xbc/internal/service/jobspec"
)

// Submit states, as reported by POST /v1/jobs.
const (
	// SubmitQueued: a new job was accepted and enqueued.
	SubmitQueued = "queued"
	// SubmitCoalesced: an identical spec is already queued or running; the
	// submission attached to it.
	SubmitCoalesced = "coalesced"
	// SubmitCached: an identical spec already completed; the result is
	// available immediately.
	SubmitCached = "cached"
)

// SubmitResponse answers POST /v1/jobs and each entry of a sweep fan-out.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"` // queued, coalesced, or cached
}

// Job answers GET /v1/jobs/{id}: the spec as normalized by the server,
// the lifecycle state, and — once terminal — the result or the error.
type Job struct {
	ID    string       `json:"id"`
	State string       `json:"state"` // queued, running, done, failed, aborted
	Spec  jobspec.Spec `json:"spec"`
	Error string       `json:"error,omitempty"`

	// Unix-milliseconds timestamps from the server's injected clock; zero
	// when the stage has not happened (or the clock is unset in tests).
	SubmittedAtMS int64 `json:"submitted_at_ms,omitempty"`
	StartedAtMS   int64 `json:"started_at_ms,omitempty"`
	FinishedAtMS  int64 `json:"finished_at_ms,omitempty"`

	Metrics  *frontend.Metrics  `json:"metrics,omitempty"`
	Estimate *interval.Estimate `json:"estimate,omitempty"`

	// Fidelity marks which rung of the fidelity ladder produced the
	// metrics ("full", "sampled", "estimate"); ErrorBound carries the
	// advertised absolute error per derived metric for sampled and
	// estimate results; SampledUops counts the uops simulated in detail;
	// SnapshotHit reports that a full run restored a warm-state snapshot.
	Fidelity    string             `json:"fidelity,omitempty"`
	ErrorBound  map[string]float64 `json:"error_bound,omitempty"`
	SampledUops uint64             `json:"sampled_uops,omitempty"`
	SnapshotHit bool               `json:"snapshot_hit,omitempty"`
}

// Event is one line of the GET /v1/jobs/{id}/events JSON-lines stream:
// a state transition with the server clock's timestamp.
type Event struct {
	Seq   int    `json:"seq"`
	State string `json:"state"`
	AtMS  int64  `json:"at_ms,omitempty"`
	Msg   string `json:"msg,omitempty"`
}

// SweepRequest fans a configuration grid out into frontends x workloads x
// budgets individual jobs (POST /v1/sweeps). Empty dimensions default to
// {xbc}, all 21 paper workloads, and {32768}.
type SweepRequest struct {
	Frontends []string `json:"frontends,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Budgets   []int    `json:"budgets,omitempty"`
	// Fidelities is the fidelity axis ("full", "sampled", "estimate");
	// empty defaults to {full}.
	Fidelities []string             `json:"fidelities,omitempty"`
	Uops       uint64               `json:"uops,omitempty"`
	Check      bool                 `json:"check,omitempty"`
	Core       *interval.CoreConfig `json:"core,omitempty"`
}

// PlanReport accounts for how the sweep planner served a grid: of the
// Planned cells, how many were exact duplicates of another cell in the
// same sweep, how many were answered by the in-memory result cache or
// the persistent store, how many attached to an already in-flight job,
// and how many actually entered the queue to simulate. Planned ==
// Deduped + CacheHits + StoreHits + Coalesced + Simulated + Unsubmitted.
type PlanReport struct {
	Planned   int `json:"planned"`
	Deduped   int `json:"deduped"`
	CacheHits int `json:"cache_hits"`
	StoreHits int `json:"store_hits"`
	Coalesced int `json:"coalesced"`
	Simulated int `json:"simulated"`
	// Unsubmitted counts unique cells never enqueued because the sweep
	// failed mid-submission (queue full, drain began); zero on success.
	Unsubmitted int `json:"unsubmitted,omitempty"`
}

// SweepResponse lists the fanned-out jobs in grid order (frontends outer,
// workloads middle, budgets inner). Duplicate cells alias the job of
// their first occurrence, so len(Jobs) == planned cells on success. Plan
// reports the reuse accounting. On a mid-sweep failure the response
// carries the jobs submitted before the failure, a plan whose
// Unsubmitted counts what never made it in, and the error — the body
// shape is a superset of the plain Error body older clients decode.
type SweepResponse struct {
	Jobs  []SubmitResponse `json:"jobs"`
	Plan  *PlanReport      `json:"plan,omitempty"`
	Error string           `json:"error,omitempty"`
}

// SweepEvent is one line of a clustered sweep's NDJSON stream
// (POST /v1/sweeps?stream=ndjson): a gathered-cell line carries Node,
// Job, and Plan (or Error when the cell's owner refused it); the final
// line sets Done and carries the merged SweepResponse.
type SweepEvent struct {
	Seq   int             `json:"seq"`
	Node  string          `json:"node,omitempty"`
	Job   *SubmitResponse `json:"job,omitempty"`
	Plan  *PlanReport     `json:"plan,omitempty"`
	Error string          `json:"error,omitempty"`
	Done  bool            `json:"done,omitempty"`
	Sweep *SweepResponse  `json:"sweep,omitempty"`
}

// Health answers GET /healthz.
type Health struct {
	Status string `json:"status"` // "ok" or "draining"
	// Store reports the persistent store: "ok", "degraded" (latched
	// read-only after a write error), "unavailable: <why>" (configured
	// but failed to open; running memory-only), or empty when no store
	// is configured.
	Store string `json:"store,omitempty"`
	// Cluster reports the placement-ring state when the daemon runs in
	// cluster mode (-peers); absent on a single node.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ClusterHealth is the ring state a clustered daemon reports on
// /healthz: its own advertised address, the ring geometry, and each
// peer's health as this node observes it.
type ClusterHealth struct {
	Self   string        `json:"self"`
	VNodes int           `json:"vnodes"`
	Nodes  int           `json:"nodes"` // ring size, self included
	Peers  []ClusterPeer `json:"peers,omitempty"`
}

// ClusterPeer is one peer's observed health.
type ClusterPeer struct {
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
}

// Error is the JSON body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}

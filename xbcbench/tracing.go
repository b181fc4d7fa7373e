package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xbc/internal/service/jobspec"
)

// span is one timed interval of a traced request. Spans of one request
// share Req; Parent is the span that caused this one (0 for the request
// itself). Times are nanoseconds since the tracer's epoch.
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// execution is one jobspec.Execute call made by a node's worker.
type execution struct {
	spec       jobspec.Spec // normalized, as the worker ran it
	res        jobspec.Result
	err        error
	start, end int64
}

// submission links a job a traced request caused to be queued back to
// that request, with the server's submit time (unix ms).
type submission struct {
	req, root     int64
	job           string
	submittedAtMS int64
}

// tracer keeps spans in memory for the traced run. The client records the
// request spans, middleware around each node's handlers records the
// handler and cluster-edge spans, and the service's Exec option records
// each jobspec.Execute; queue spans are derived at the end.
type tracer struct {
	epoch     time.Time
	ids       atomic.Int64
	recording atomic.Bool // executions are kept only during the timed phase
	// cost is the time spent in the tracing code itself, in ns.
	cost atomic.Int64

	mu     sync.Mutex
	spans  []span
	execs  []execution
	submit []submission
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// wrap returns h with one span recorded per traced call: layer "edge" is
// the cluster ownership gate, "handler" the single-node service handler.
// A nil tracer returns h itself, so untraced runs serve exactly xbcd's
// handler stack.
func (t *tracer) wrap(layer, node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c0 := time.Now()
		req, err := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if err != nil {
			t.cost.Add(int64(time.Since(c0)))
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		id := t.newID()
		r.Header.Set(hdrParent, strconv.FormatInt(id, 10))
		name := layer
		if layer == "handler" {
			name += "." + route(r)
		}
		start := t.now()
		t.cost.Add(int64(time.Since(c0)))
		h.ServeHTTP(w, r)
		c1 := time.Now()
		t.add(span{Req: req, ID: id, Parent: parent, Name: name, Node: node, Start: start, End: t.now()})
		t.cost.Add(int64(time.Since(c1)))
	})
}

// route names the API route of a call.
func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps":
		return "sweep"
	case strings.HasSuffix(r.URL.Path, "/events"):
		return "events"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "get"
	default:
		return "other"
	}
}

// exec is the service's Exec option in traced runs: it only times
// jobspec.Execute.
func (t *tracer) exec(s jobspec.Spec) (jobspec.Result, error) {
	start := t.now()
	res, err := jobspec.Execute(s)
	end := t.now()
	if t.recording.Load() {
		t.mu.Lock()
		t.execs = append(t.execs, execution{spec: s, res: res, err: err, start: start, end: end})
		t.mu.Unlock()
	}
	t.cost.Add(t.now() - end)
	return res, err
}

// submitted records that a traced request got job queued.
func (t *tracer) submitted(req, root int64, job string, submittedAtMS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.submit = append(t.submit, submission{req: req, root: root, job: job, submittedAtMS: submittedAtMS})
}

// executions returns the recorded executions.
func (t *tracer) executions() []execution { return t.executionsSince(0) }

// executionsSince returns the executions recorded after the first i.
func (t *tracer) executionsSince(i int) []execution {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]execution(nil), t.execs[i:]...)
}

// finish adds the execute and queue spans of every job a traced request
// queued, and returns all spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byJob := make(map[string]submission, len(t.submit))
	for _, s := range t.submit {
		if _, ok := byJob[s.job]; !ok {
			byJob[s.job] = s
		}
	}
	epochNS := t.epoch.UnixNano()
	for _, e := range t.execs {
		key, err := e.spec.Key()
		if err != nil {
			continue
		}
		s, ok := byJob[key]
		if !ok {
			continue
		}
		// The server stamps submissions in whole milliseconds; the queue
		// span starts at that stamp, so it reads up to 1 ms long.
		queued := s.submittedAtMS*int64(time.Millisecond) - epochNS
		if queued > e.start {
			queued = e.start
		}
		t.spans = append(t.spans,
			span{Req: s.req, ID: t.newID(), Parent: s.root, Name: "queue", Job: key, Start: queued, End: e.start},
			span{Req: s.req, ID: t.newID(), Parent: s.root, Name: "execute", Job: key, Start: e.start, End: e.end})
	}
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, in nanoseconds, keyed by span ID.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals inside s.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// spanMetrics reduces the spans to the per-layer self times.
func spanMetrics(spans []span, m map[string]float64) {
	self := selfTimes(spans)
	hasEdgeChild := make(map[int64]bool)
	names := make(map[int64]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	for _, s := range spans {
		if s.Name == "edge" && names[s.Parent] == "edge" {
			hasEdgeChild[s.Parent] = true
		}
	}
	var request, handler, hop, queue []float64
	for _, s := range spans {
		ns := float64(self[s.ID])
		switch {
		case s.Name == "request":
			request = append(request, ns/1e6)
		case s.Name == "handler.events":
			// Mostly waiting for the job; its cost shows in the request's
			// latency, not as handler work.
		case strings.HasPrefix(s.Name, "handler."):
			handler = append(handler, ns/1e3)
		case s.Name == "edge" && hasEdgeChild[s.ID]:
			hop = append(hop, ns/1e3)
		case s.Name == "queue":
			queue = append(queue, float64(s.End-s.Start)/1e6)
		}
	}
	m["self.request_ms"] = median(request)
	m["service.handler_us"] = median(handler)
	m["cluster.hop_us"] = median(hop)
	m["service.queue_wait_ms"] = median(queue)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

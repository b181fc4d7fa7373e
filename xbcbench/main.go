// Command xbcbench is the xbcd benchmark. It starts xbcd nodes in its
// own process, drives one traffic shape through their HTTP API from one
// closed-loop client, checks every result it was served, and prints one
// JSON object of metrics as the last line of its output.
//
//	bash xbcbench/run.sh --workload cold|sweep|cached --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans and re-times each layer on the run's own inputs, and
// reports the per-layer metrics instead. RATIONALE.md explains the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xbc/internal/service/api"
)

// setupReps is how many times a run sets its workload up afresh;
// setup_s is the median, and the last set-up serves the timed phase.
const setupReps = 3

// minRequests is the smallest timed request count: p90 then has at least
// minTail samples beyond it.
const minRequests = 120

func main() {
	// The benchmark runs on one P. On two, a sweep keeps both cores busy,
	// so a process taking one core of the shared machine cuts its cells/s
	// by a fifth and cold's jobs/s by a seventh; on one P neither moves.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// traffic is one workload: a traffic shape with its set-up and checks.
type traffic interface {
	// rate is the nominal requests per second on one core; it
	// sizes the fixed request list to about --seconds of traffic.
	rate() float64
	// setUp starts a fresh environment: nodes, stores, filled caches.
	setUp(b *bench, rep int) error
	// run sends the request list through b.request.
	run(b *bench) error
	// verify is the correctness gate over what run was served.
	verify(b *bench, g *gate) error
	// inputs returns what the traced run re-times the layers on.
	inputs(b *bench) layerInputs
}

// bench is the state of one run.
type bench struct {
	seed int64
	n    int    // timed requests
	dir  string // per-run working directory inside the checkout
	exe  string // this binary, for the sweep workload's first server life
	book addrBook
	c    *client
	tr   *tracer // nil unless traced
	// In traced runs, lc re-times the layers of each execution right
	// after its request; retimed counts the executions seen, and the
	// retime fields keep its cost out of the timed phase's figures.
	lc            *layerClock
	retimed       int
	retimeErr     error
	retimeGC      uint32
	retimePauseNS uint64
	nodes         []*node
	stderr        io.Writer

	// The timed phase's outcome.
	lat       []float64 // per request, ms
	results   int       // results delivered (sweep: grid cells)
	attempted int
	failed    int
	plan      api.PlanReport // summed over sweeps
}

func newWorkload(name string, seed int64) (traffic, error) {
	switch name {
	case "cold":
		return &cold{seed: seed}, nil
	case "sweep":
		return &sweep{seed: seed}, nil
	case "cached":
		return &cached{seed: seed}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want cold, sweep or cached)", name)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "traffic shape: cold, sweep or cached")
	seed := fs.Int64("seed", 1, "seed of the request list")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase")
	traced := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	life1 := fs.String("sweep-life1", "", "run the sweep workload's first server life on this store directory, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *life1 != "" {
		if err := sweepLife1(*life1); err != nil {
			fmt.Fprintln(stderr, "xbcbench: sweep life 1:", err)
			return 1
		}
		return 0
	}
	rep, err := bench1(*name, *seed, *seconds, *traced == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "xbcbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "xbcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench1 runs one workload once.
func bench1(name string, seed int64, seconds int, traced bool, stdout, stderr io.Writer) (*report, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		seed:   seed,
		n:      max(minRequests, int(math.Ceil(w.rate()*float64(seconds)))),
		dir:    dir,
		exe:    exe,
		stderr: stderr,
	}
	b.c = newClient(&b.book)
	if traced {
		b.tr = newTracer()
	}
	defer func() {
		if err := b.stopNodes(); err != nil {
			fmt.Fprintln(stderr, "xbcbench: stopping nodes:", err)
		}
	}()

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if err := b.stopNodes(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setUp(b, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	runtime.GC()
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if b.tr != nil {
		b.tr.recording.Store(true)
	}
	b.c.counting = true
	start := time.Now()
	if err := w.run(b); err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()
	b.c.counting = false
	if b.tr != nil {
		b.tr.recording.Store(false)
		if b.retimeErr != nil {
			return nil, fmt.Errorf("re-timing layers: %w", b.retimeErr)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}

	g := &gate{}
	if err := w.verify(b, g); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	for _, note := range g.notes {
		fmt.Fprintln(stderr, "xbcbench: mismatch:", note)
	}

	p50, err := percentile(b.lat, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(b.lat, 0.90)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s seed=%d: %d requests (%d results) in %.2fs; latency p50 %.3fms p90 %.3fms over %d samples; setup %.3fs; checks %d, mismatches %d\n",
		name, seed, len(b.lat), b.results, elapsed, p50, p90, len(b.lat), median(setups), g.checked, g.failed)

	rep := &report{
		Correct:   b.failed == 0 && g.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed + g.failed,
		Metrics:   map[string]metric{},
	}
	if b.tr == nil {
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Metrics["jobs_per_s"] = metric{float64(b.results) / elapsed, "1/s"}
		rep.Metrics["latency_p50_ms"] = metric{p50, "ms"}
		rep.Metrics["latency_p90_ms"] = metric{p90, "ms"}
		rep.Metrics["heap_mb"] = metric{float64(ms1.HeapAlloc) / 1e6, "MB"}
		return rep, nil
	}

	m := map[string]float64{
		"bench.requests":        float64(len(b.lat)),
		"runtime.gc_cycles":     float64(ms1.NumGC - ms0.NumGC - b.retimeGC),
		"runtime.gc_pause_ms":   float64(ms1.PauseTotalNs-ms0.PauseTotalNs-b.retimePauseNS) / 1e6,
		"traced.latency_p50_ms": p50,
		"tracing.overhead_pct":  100 * float64(b.tr.cost.Load()) / 1e6 / sum(b.lat),
	}
	counterMetrics(before, after, b, m)
	spans := b.tr.finish()
	spanMetrics(spans, m)
	in := w.inputs(b)
	if err := b.stopNodes(); err != nil {
		return nil, err
	}
	if err := retime(b, in, m); err != nil {
		return nil, fmt.Errorf("re-timing layers: %w", err)
	}
	if in.checkCoverage {
		cov, verdict := m["coverage.execute_share"], "holds"
		if math.Abs(cov-1) > 0.10 {
			verdict = "does not hold"
		}
		fmt.Fprintf(stdout, "%s: layers cover %.3f of jobspec.Execute on re-timed full jobs; the 10%% coverage check %s\n", name, cov, verdict)
	}
	spanDir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.ndjson", name, seed)), spans); err != nil {
		return nil, err
	}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		rep.Metrics[l.name] = metric{v, l.unit}
	}
	d := func(series string) float64 { return after[series] - before[series] }
	fmt.Fprintf(stdout, "%s counts: uops_simulated=%.0f planned=%.0f deduped=%.0f plan_cache_hits=%.0f plan_store_hits=%d simulated=%.0f cache_hits=%.0f forwards=%.0f store_hits=%.0f snapshot_saves=%.0f snapshot_hits=%.0f\n",
		name, m["frontend.uops_simulated"], m["planner.planned"], m["planner.deduped"], m["planner.cache_hits"], b.plan.StoreHits,
		m["planner.simulated"], d("xbcd_cache_hits_total"), d("xbcd_cluster_forwards_total"), m["store.hits"], m["snapshot.saves"], m["snapshot.hits"])
	return rep, nil
}

// request times one closed-loop request i. fn sends it and returns the
// results it delivered and how many of them failed.
func (b *bench) request(i int, fn func() (results, failed int)) {
	var req, root, t0 int64
	if b.tr != nil {
		c0 := time.Now()
		req, root = int64(i+1), b.tr.newID()
		b.c.req, b.c.root = req, root
		t0 = b.tr.now()
		b.tr.cost.Add(int64(time.Since(c0)))
	}
	start := time.Now()
	results, failed := fn()
	b.lat = append(b.lat, float64(time.Since(start))/1e6)
	if b.tr != nil {
		c0 := time.Now()
		b.tr.add(span{Req: req, ID: root, Name: "request", Start: t0, End: b.tr.now()})
		b.c.req, b.c.root = 0, 0
		b.tr.cost.Add(int64(time.Since(c0)))
		if err := b.retimeNew(); err != nil && b.retimeErr == nil {
			b.retimeErr = err
		}
	}
	b.results += results - failed
	b.attempted += results
	b.failed += failed
}

// noteSubmitted links a job a traced request queued to the request, for
// its queue and execute spans.
func (b *bench) noteSubmitted(status string, j api.Job) {
	if b.tr == nil || status != api.SubmitQueued {
		return
	}
	c0 := time.Now()
	b.tr.submitted(b.c.req, b.c.root, j.ID, j.SubmittedAtMS)
	b.tr.cost.Add(int64(time.Since(c0)))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// counterMetrics fills the per-layer counts from the /metrics deltas
// around the timed phase and the sweeps' plan reports.
func counterMetrics(before, after map[string]float64, b *bench, m map[string]float64) {
	d := func(series string) float64 { return after[series] - before[series] }
	hits, misses := d("xbcd_cache_hits_total"), d("xbcd_cache_misses_total")
	m["service.cache_hit_ratio"] = 0
	if hits+misses > 0 {
		m["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["service.coalesced"] = d("xbcd_jobs_coalesced_total")
	m["service.rejected"] = d("xbcd_jobs_rejected_total")
	m["store.hits"] = d("xbcd_store_hits_total")
	m["store.misses"] = d("xbcd_store_misses_total")
	m["store.corpus_hits"] = d("xbcd_store_corpus_hits_total")
	m["snapshot.hits"] = d("xbcd_snapshot_hits_total")
	m["snapshot.misses"] = d("xbcd_snapshot_misses_total")
	m["snapshot.saves"] = d("xbcd_snapshot_saves_total")
	m["cluster.fallbacks"] = d("xbcd_cluster_fallbacks_total")
	m["cluster.forward_share"] = 0
	if b.c.calls > 0 {
		m["cluster.forward_share"] = d("xbcd_cluster_forwards_total") / float64(b.c.calls)
	}
	m["planner.planned"] = float64(b.plan.Planned)
	m["planner.deduped"] = float64(b.plan.Deduped)
	m["planner.cache_hits"] = float64(b.plan.CacheHits)
	m["planner.simulated"] = float64(b.plan.Simulated)
}

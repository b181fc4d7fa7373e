package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xbc/internal/experiments"
	"xbc/internal/frontend"
	"xbc/internal/program"
	"xbc/internal/sampling"
	"xbc/internal/service/jobspec"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayer lists the traced run's metrics, as BENCHMARK.json names them.
// A layer the workload does not use reads 0.
var perLayer = []layerMetric{
	{"bench.requests", "count"},
	{"program.build_ms", "ms"},
	{"trace.walk_ms", "ms"},
	{"trace.encode_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"store.open_s", "s"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.corpus_hits", "count"},
	{"icfe.ns_per_uop", "ns/uop"},
	{"decoded.ns_per_uop", "ns/uop"},
	{"tcache.ns_per_uop", "ns/uop"},
	{"bbtc.ns_per_uop", "ns/uop"},
	{"xbcore.ns_per_uop", "ns/uop"},
	{"frontend.uops_simulated", "count"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.blob_kb", "KB"},
	{"snapshot.hits", "count"},
	{"snapshot.saves", "count"},
	{"snapshot.misses", "count"},
	{"sampling.analyze_ms", "ms"},
	{"sampling.run_ms", "ms"},
	{"sampling.detail_share", "share"},
	{"jobspec.normalize_us", "us"},
	{"jobspec.execute_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.handler_us", "us"},
	{"service.cache_hit_ratio", "share"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"planner.planned", "count"},
	{"planner.deduped", "count"},
	{"planner.cache_hits", "count"},
	{"planner.simulated", "count"},
	{"cluster.hop_us", "us"},
	{"cluster.forward_share", "share"},
	{"cluster.fallbacks", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"self.request_ms", "ms"},
	{"traced.latency_p50_ms", "ms"},
	{"tracing.overhead_pct", "%"},
	{"coverage.execute_share", "share"},
}

// feLayer names each frontend kind's package.
var feLayer = map[string]string{
	jobspec.KindIC:      "icfe",
	jobspec.KindDecoded: "decoded",
	jobspec.KindTC:      "tcache",
	jobspec.KindBBTC:    "bbtc",
	jobspec.KindXBC:     "xbcore",
}

// Re-timing budget: how many executions get their layers re-timed.
const (
	retimeFullPerKind = 4
	retimeSampled     = 6
	retimeStreams     = 3
	retimeNormalize   = 200
	retimeStoreKeys   = 40
)

// layerInputs is what the traced run re-times the layers on after the
// timed phase.
type layerInputs struct {
	execs []execution    // the timed phase's executions
	raw   []jobspec.Spec // the specs as the client sent them
	dirs  []string       // the nodes' store directories
	// checkCoverage: report whether the layers account for
	// jobspec.Execute; only where every job generates its trace.
	checkCoverage bool
	// synthetic: no job ran in the timed phase; execs stand for the
	// workload's keys and carry no timing or result.
	synthetic bool
}

// retimeNew re-times the layers of the executions recorded since the last
// call. It runs between requests of the timed phase, right after the
// request that caused them, so that both see the same machine; its GC
// cycles are kept out of the timed phase's.
func (b *bench) retimeNew() error {
	execs := b.tr.executionsSince(b.retimed)
	if len(execs) == 0 {
		return nil
	}
	b.retimed += len(execs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range execs {
		if err := b.lc.execution(e); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	b.retimeGC += after.NumGC - before.NumGC
	b.retimePauseNS += after.PauseTotalNs - before.PauseTotalNs
	return nil
}

// retime fills the per-layer metrics: aggregates over the timed phase's
// executions, the layer timings retimeNew took, and timings of the layers
// that need the whole run: the frontends over its streams, spec
// normalization, and the stores. The nodes are stopped by now.
func retime(b *bench, in layerInputs, m map[string]float64) error {
	l := b.lc
	var uops, detail, sampledTotal float64
	var exec []float64
	for _, e := range in.execs {
		if in.synthetic {
			if err := l.execution(e); err != nil {
				return err
			}
			continue
		}
		if e.err != nil {
			continue
		}
		exec = append(exec, float64(e.end-e.start)/1e6)
		if e.res.EffectiveFidelity() == jobspec.FidelityFull {
			uops += float64(e.res.Metrics.Uops)
		} else {
			uops += float64(e.res.SampledUops)
			detail += float64(e.res.SampledUops)
			sampledTotal += float64(e.res.Metrics.Uops)
		}
	}
	m["frontend.uops_simulated"] = uops
	m["jobspec.execute_ms"] = median(exec)
	m["sampling.detail_share"] = 0
	if sampledTotal > 0 {
		m["sampling.detail_share"] = detail / sampledTotal
	}
	m["coverage.execute_share"] = 0
	if in.checkCoverage {
		m["coverage.execute_share"] = median(l.cover)
	}
	for _, e := range l.streams {
		s, err := experiments.StreamFor(*e.spec.Program, e.spec.Uops)
		if err != nil {
			return err
		}
		if err := l.frontends(e.spec, s); err != nil {
			return err
		}
	}
	for _, i := range subset(b.seed, len(in.raw), retimeNormalize) {
		if err := l.normalize(in.raw[i]); err != nil {
			return err
		}
	}
	for i, dir := range in.dirs {
		if err := l.store(dir, filepath.Join(b.dir, fmt.Sprintf("put-probe-%d", i))); err != nil {
			return err
		}
	}
	l.fill(m)
	return nil
}

// layerClock re-times layers and collects their costs.
type layerClock struct {
	snapshots bool // the nodes ran with warm-state snapshots

	// Which executions have been re-timed: up to retimeFullPerKind full
	// ones per frontend kind and up to retimeSampled sampled ones; streams
	// keeps the first retimeStreams distinct traces of the full ones.
	fullPerKind map[string]int
	sampledN    int
	streams     []execution
	cover       []float64 // per full job: layer sum over its Execute span

	build, walk, encode, decode []float64 // ms
	save, restore, blobKB       []float64 // ms, ms, KB
	analyze, sampledRun         []float64 // ms
	normalizeUS                 []float64
	openS, getUS, putUS         []float64
	feNS, feUops                map[string]float64
}

func newLayerClock(snapshots bool) *layerClock {
	return &layerClock{
		snapshots:   snapshots,
		fullPerKind: make(map[string]int),
		feNS:        make(map[string]float64),
		feUops:      make(map[string]float64),
	}
}

// execution re-times the layers one execution went through, while the
// budget lasts: trace generation and, with snapshots, the full session for
// a full job; the analysis and the sampled run for a sampled one. For a
// full job it records the layers' share of its Execute span.
func (l *layerClock) execution(e execution) error {
	if e.err != nil {
		return nil
	}
	if e.res.EffectiveFidelity() != jobspec.FidelityFull {
		if l.sampledN >= retimeSampled {
			return nil
		}
		l.sampledN++
		return l.sampled(e.spec)
	}
	if l.fullPerKind[e.spec.Frontend] >= retimeFullPerKind {
		return nil
	}
	l.fullPerKind[e.spec.Frontend]++
	s, t, err := l.trace(*e.spec.Program, e.spec.Uops)
	if err != nil {
		return err
	}
	if len(l.streams) < retimeStreams && !l.hasStream(e.spec) {
		l.streams = append(l.streams, e)
	}
	if !l.snapshots {
		return nil
	}
	st, err := l.session(e.spec, s.Recs)
	if err != nil {
		return err
	}
	if e.end > e.start {
		l.cover = append(l.cover, (t+st)/(float64(e.end-e.start)/1e6))
	}
	return nil
}

// hasStream reports whether a stream of the same trace is already kept.
func (l *layerClock) hasStream(spec jobspec.Spec) bool {
	for _, e := range l.streams {
		if e.spec.Program.Name == spec.Program.Name && e.spec.Uops == spec.Uops {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// trace times program.Build, the walk, the .xtr encode and its decode for
// one stream, and returns the stream and the ms the first three took: the
// corpus-miss path of jobspec.Execute.
func (l *layerClock) trace(spec program.Spec, uops uint64) (*trace.Stream, float64, error) {
	t := time.Now()
	p, err := program.Build(spec)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t)
	t = time.Now()
	s := trace.GenerateFrom(p, uops)
	walk := time.Since(t)
	var buf bytes.Buffer
	t = time.Now()
	if err := trace.Write(&buf, s); err != nil {
		return nil, 0, err
	}
	encode := time.Since(t)
	t = time.Now()
	if _, err := trace.Read(bytes.NewReader(buf.Bytes())); err != nil {
		return nil, 0, err
	}
	decode := time.Since(t)
	l.build = append(l.build, ms(build))
	l.walk = append(l.walk, ms(walk))
	l.encode = append(l.encode, ms(encode))
	l.decode = append(l.decode, ms(decode))
	return s, ms(build + walk + encode), nil
}

// session replays a full job's session the way jobspec.Execute runs it
// without a snapshot to restore: build the frontend, simulate to the
// warm-state capture point, save and seal the state, simulate to the end.
// It returns the ms of all of it, and times restoring the saved state.
func (l *layerClock) session(spec jobspec.Spec, recs []trace.Rec) (float64, error) {
	t := time.Now()
	fe, err := spec.NewFrontend()
	if err != nil {
		return 0, err
	}
	sf, ok := fe.(frontend.SessionFrontend)
	if !ok {
		return 0, fmt.Errorf("frontend %s has no sessions", spec.Frontend)
	}
	ses := sf.NewSession()
	ses.StepTo(recs, recIndexAtUops(recs, jobspec.SnapshotWarmupUops(spec.Uops)))
	mid := time.Now()
	var w snapshot.Writer
	ses.SaveState(&w)
	blob := snapshot.Seal(w.Bytes())
	save := time.Since(mid)
	ses.StepTo(recs, len(recs))
	ses.Finish()
	total := time.Since(t)

	t = time.Now()
	payload, err := snapshot.Open(blob)
	if err != nil {
		return 0, err
	}
	if err := sf.NewSession().LoadState(snapshot.NewReader(payload)); err != nil {
		return 0, err
	}
	l.restore = append(l.restore, ms(time.Since(t)))
	l.save = append(l.save, ms(save))
	l.blobKB = append(l.blobKB, float64(len(blob))/1024)
	return ms(total), nil
}

// recIndexAtUops is the first record index at which at least uops uops
// have been consumed: where jobspec.Execute captures warm state.
func recIndexAtUops(recs []trace.Rec, uops uint64) int {
	var u uint64
	for i, r := range recs {
		if u >= uops {
			return i
		}
		u += uint64(r.NumUops)
	}
	return len(recs)
}

// frontends times frontend.RunSafe of every kind over one stream.
func (l *layerClock) frontends(spec jobspec.Spec, s *trace.Stream) error {
	for _, kind := range jobspec.Kinds() {
		k := spec
		k.Frontend = kind
		fe, err := k.NewFrontend()
		if err != nil {
			return err
		}
		t := time.Now()
		mt, err := frontend.RunSafe(fe, &trace.Stream{Name: s.Name, Recs: s.Recs})
		if err != nil {
			return err
		}
		l.feNS[kind] += float64(time.Since(t))
		l.feUops[kind] += float64(mt.Uops)
	}
	return nil
}

// sampled times the two halves of a sampled run.
func (l *layerClock) sampled(spec jobspec.Spec) error {
	s, err := experiments.StreamFor(*spec.Program, spec.Uops)
	if err != nil {
		return err
	}
	fe, err := spec.NewFrontend()
	if err != nil {
		return err
	}
	sf, ok := fe.(frontend.SessionFrontend)
	if !ok {
		return fmt.Errorf("frontend %s has no sessions", spec.Frontend)
	}
	cfg := jobspec.SamplingConfig(spec.Fidelity)
	t := time.Now()
	a, err := sampling.Analyze(s.Records(), cfg)
	if err != nil {
		return err
	}
	l.analyze = append(l.analyze, ms(time.Since(t)))
	t = time.Now()
	if _, err := sampling.RunAnalyzed(sf, s.Records(), frontend.DefaultConfig(), cfg, a); err != nil {
		return err
	}
	l.sampledRun = append(l.sampledRun, ms(time.Since(t)))
	return nil
}

// normalize times what the service does to a submitted spec before it
// can look the job up: Normalize, Validate, Key.
func (l *layerClock) normalize(raw jobspec.Spec) error {
	t := time.Now()
	n := raw.Normalize()
	if err := n.Validate(); err != nil {
		return err
	}
	if _, err := n.Key(); err != nil {
		return err
	}
	l.normalizeUS = append(l.normalizeUS, float64(time.Since(t))/1e3)
	return nil
}

// store times opening a node's store, reading a spread of its records,
// and writing them into a fresh store.
func (l *layerClock) store(dir, probe string) error {
	t := time.Now()
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	l.openS = append(l.openS, time.Since(t).Seconds())
	keys := st.Keys()
	sort.Strings(keys)
	stride := max(1, len(keys)/retimeStoreKeys)
	var vals [][]byte
	var picked []string
	for i := 0; i < len(keys); i += stride {
		t := time.Now()
		v, ok := st.Get(keys[i])
		if !ok {
			st.Close()
			return fmt.Errorf("store %s lost key %s", dir, keys[i])
		}
		l.getUS = append(l.getUS, float64(time.Since(t))/1e3)
		vals = append(vals, v)
		picked = append(picked, keys[i])
	}
	if err := st.Close(); err != nil {
		return err
	}
	out, err := openStore(probe)
	if err != nil {
		return err
	}
	for i, v := range vals {
		t := time.Now()
		if err := out.Put(picked[i], v); err != nil {
			out.Close()
			return err
		}
		l.putUS = append(l.putUS, float64(time.Since(t))/1e3)
	}
	return out.Close()
}

// fill writes the medians.
func (l *layerClock) fill(m map[string]float64) {
	m["program.build_ms"] = median(l.build)
	m["trace.walk_ms"] = median(l.walk)
	m["trace.encode_ms"] = median(l.encode)
	m["trace.decode_ms"] = median(l.decode)
	m["snapshot.save_ms"] = median(l.save)
	m["snapshot.restore_ms"] = median(l.restore)
	m["snapshot.blob_kb"] = median(l.blobKB)
	m["sampling.analyze_ms"] = median(l.analyze)
	m["sampling.run_ms"] = median(l.sampledRun)
	m["jobspec.normalize_us"] = median(l.normalizeUS)
	m["store.open_s"] = median(l.openS)
	m["store.get_us"] = median(l.getUS)
	m["store.put_us"] = median(l.putUS)
	for kind, layer := range feLayer {
		m[layer+".ns_per_uop"] = 0
		if l.feUops[kind] > 0 {
			m[layer+".ns_per_uop"] = l.feNS[kind] / l.feUops[kind]
		}
	}
}

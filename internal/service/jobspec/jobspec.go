// Package jobspec is the single definition of a simulation job: which
// frontend model, over which workload, for how many uops, under which
// configuration. The same Spec — with the same validation and the same
// canonical content key — backs the HTTP service (cmd/xbcd), its client
// (cmd/xbcctl), and the one-shot CLIs (cmd/xbcsim, cmd/experiments), so a
// spec the CLI accepts is exactly a spec the server accepts, and two
// submissions that mean the same simulation hash to the same key.
package jobspec

import (
	"encoding/json"
	"fmt"
	"strings"

	"xbc/internal/bbtc"
	"xbc/internal/corpus"
	"xbc/internal/decoded"
	"xbc/internal/frontend"
	"xbc/internal/icfe"
	"xbc/internal/interval"
	"xbc/internal/program"
	"xbc/internal/tcache"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

// Frontend kinds. These are the -fe values of cmd/xbcsim and the
// "frontend" field of the service API.
const (
	KindIC      = "ic"
	KindDecoded = "decoded"
	KindTC      = "tc"
	KindBBTC    = "bbtc"
	KindXBC     = "xbc"
)

// Kinds returns the frontend kinds in canonical report order.
func Kinds() []string { return []string{KindIC, KindDecoded, KindTC, KindBBTC, KindXBC} }

// ValidKind reports whether kind names a frontend model.
func ValidKind(kind string) bool {
	switch kind {
	case KindIC, KindDecoded, KindTC, KindBBTC, KindXBC:
		return true
	default:
		return false
	}
}

// Default spec parameters, matching the one-shot CLIs, and the smallest
// cache budget a spec may ask for.
const (
	DefaultUops   = 1_000_000
	DefaultBudget = 32 * 1024
	MinBudget     = 1024
)

// Spec is one simulation job. Exactly one of Workload (a named synthetic
// workload — the 21 paper traces or the 5 micro workloads) and Program (an
// inline generator spec) selects the trace.
type Spec struct {
	// Frontend is the supply model: ic, decoded, tc, bbtc, or xbc.
	Frontend string `json:"frontend"`
	// Workload names a built-in synthetic workload.
	Workload string `json:"workload,omitempty"`
	// Program is an inline program-generator spec (advanced use).
	Program *program.Spec `json:"program,omitempty"`
	// Uops is the dynamic stream length (default 1M).
	Uops uint64 `json:"uops,omitempty"`
	// Budget is the cache capacity in uops (default 32K; ignored for ic).
	Budget int `json:"budget,omitempty"`
	// Ports, for the ic frontend only, selects the multi-ported
	// ([Yeh93]-style) fetch variant when > 1.
	Ports int `json:"ports,omitempty"`
	// Check enables the XBC cycle-level invariant checker (xbc only).
	Check bool `json:"check,omitempty"`
	// Fidelity selects the rung of the fidelity ladder: "" or "full" is
	// the exact cycle-level run (the default), "sampled" simulates only
	// representative intervals and extrapolates with an error bound, and
	// "estimate" is the cheapest single-window extrapolation with the
	// widest bound. Check forces full.
	Fidelity string `json:"fidelity,omitempty"`
	// Core, when set, additionally runs first-order interval analysis over
	// the run's metrics and attaches the IPC estimate to the result.
	Core *interval.CoreConfig `json:"core,omitempty"`
}

// Result is one executed job: the frontend metrics, plus the interval
// estimate when the spec carried a core config, plus the fidelity the
// metrics were produced at and its advertised error bound.
type Result struct {
	Metrics  frontend.Metrics   `json:"metrics"`
	Estimate *interval.Estimate `json:"estimate,omitempty"`
	// Fidelity records which rung produced the metrics ("full", "sampled"
	// or "estimate"). Results stored before the fidelity ladder existed
	// carry ""; read it through EffectiveFidelity.
	Fidelity string `json:"fidelity,omitempty"`
	// ErrorBound maps derived-metric names ("ipc", "uop_miss_rate") to the
	// absolute error the extrapolation advertises. Set for sampled and
	// estimate results; full results are exact and carry none.
	ErrorBound map[string]float64 `json:"error_bound,omitempty"`
	// SampledUops counts the uops simulated in detail by a sampled or
	// estimate run (the rest were skipped or functionally warmed).
	SampledUops uint64 `json:"sampled_uops,omitempty"`
	// SnapshotHit reports that a full run restored a warm-state snapshot
	// instead of re-simulating its warmup prefix.
	SnapshotHit bool `json:"snapshot_hit,omitempty"`
}

// EffectiveFidelity normalizes the recorded fidelity: results written
// before the ladder existed ("") were full runs.
func (r Result) EffectiveFidelity() string {
	if r.Fidelity == "" {
		return FidelityFull
	}
	return r.Fidelity
}

// ResultStoreKey is the persistent-store key of the result of the job
// with content key key. xbcd and cmd/experiments both store results
// under it, in the EncodeResult layout, so either serves the other.
func ResultStoreKey(key string) string { return "r:" + key }

// storedResult is the persisted layout of one Result. The spec is not
// stored: the store key is its content hash, so key equality is spec
// equality. Records written by older binaries also carry an "attempts"
// count, which decoding ignores.
type storedResult struct {
	Result Result `json:"result"`
}

// EncodeResult renders r in the persisted layout.
func EncodeResult(r Result) ([]byte, error) { return json.Marshal(storedResult{Result: r}) }

// DecodeResult parses a result persisted by EncodeResult.
func DecodeResult(b []byte) (Result, error) {
	var sr storedResult
	err := json.Unmarshal(b, &sr)
	return sr.Result, err
}

// Normalize returns a copy with defaults filled and the workload name
// resolved into its program spec, so that a named workload and its inline
// equivalent are the same job. Normalize does not validate; an unknown
// name or frontend kind passes through for Validate to report.
func (s Spec) Normalize() Spec {
	if s.Uops == 0 {
		s.Uops = DefaultUops
	}
	if s.Budget == 0 && s.Frontend != KindIC {
		s.Budget = DefaultBudget
	}
	if s.Frontend == KindIC {
		s.Budget = 0 // the IC geometry is fixed; budget must not split keys
		if s.Ports == 0 {
			s.Ports = 1
		}
	} else {
		s.Ports = 0
	}
	if s.Check && s.Frontend != KindXBC {
		s.Check = false
	}
	if s.Fidelity == FidelityFull {
		s.Fidelity = "" // full is the default; "" keeps pre-ladder keys stable
	}
	if s.Check {
		s.Fidelity = "" // the invariant checker needs the exact cycle-level run
	}
	if s.Program == nil && s.Workload != "" {
		if w, ok := ResolveWorkload(s.Workload); ok {
			spec := w.Spec
			s.Program = &spec
		}
	}
	return s
}

// Validate reports the first problem with the (normalized) spec. A spec
// that validates is executable: Execute can only fail on resource limits
// or an internal simulator fault, never on the spec shape.
func (s Spec) Validate() error {
	if err := s.validateModel(); err != nil {
		return err
	}
	switch {
	case s.Workload == "" && s.Program == nil:
		return fmt.Errorf("jobspec: no trace: set workload (one of the built-in names) or an inline program spec")
	case s.Workload != "" && s.Program == nil:
		// Normalize resolves known names; a surviving bare name is unknown.
		return fmt.Errorf("jobspec: unknown workload %q (known: %s; micro: %s)",
			s.Workload, strings.Join(workload.Names(), ", "), strings.Join(microNames(), ", "))
	}
	if s.Uops == 0 {
		return fmt.Errorf("jobspec: uops must be positive")
	}
	if !ValidFidelity(s.Fidelity) {
		return fmt.Errorf("jobspec: unknown fidelity %q (want one of %s)",
			s.Fidelity, strings.Join(Fidelities(), ", "))
	}
	return nil
}

// validateModel checks the fields that shape the frontend model itself,
// independent of where the instruction stream comes from. NewFrontend
// needs only this much: callers like xbcsim feed it externally-loaded
// trace files that no workload name describes.
func (s Spec) validateModel() error {
	if !ValidKind(s.Frontend) {
		return fmt.Errorf("jobspec: unknown frontend %q (want one of %s)", s.Frontend, strings.Join(Kinds(), ", "))
	}
	if s.Frontend != KindIC && s.Budget < MinBudget {
		return fmt.Errorf("jobspec: budget %d uops is below the %d-uop floor", s.Budget, MinBudget)
	}
	if s.Ports < 0 || (s.Frontend == KindIC && s.Ports < 1) {
		return fmt.Errorf("jobspec: bad port count %d", s.Ports)
	}
	if s.Core != nil {
		if err := s.Core.Validate(); err != nil {
			return fmt.Errorf("jobspec: core config: %w", err)
		}
	}
	return nil
}

// Label is a short human identity for logs and metrics rows: the frontend
// kind plus the trace name.
func (s Spec) Label() string {
	name := s.Workload
	if name == "" && s.Program != nil {
		name = s.Program.Name
	}
	if name == "" {
		name = "?"
	}
	return s.Frontend + "/" + name
}

// NewFrontend constructs the frontend model the spec names, with the
// paper's default timing parameters.
func (s Spec) NewFrontend() (frontend.Frontend, error) {
	n := s.Normalize()
	if err := n.validateModel(); err != nil {
		return nil, err
	}
	fecfg := frontend.DefaultConfig()
	switch n.Frontend {
	case KindIC:
		if n.Ports > 1 {
			return icfe.NewMultiPorted(fecfg, frontend.DefaultICConfig(), n.Ports), nil
		}
		return icfe.New(fecfg, frontend.DefaultICConfig()), nil
	case KindDecoded:
		return decoded.New(decoded.DefaultConfig(n.Budget), fecfg), nil
	case KindTC:
		return tcache.New(tcache.DefaultConfig(n.Budget), fecfg), nil
	case KindBBTC:
		return bbtc.New(bbtc.DefaultConfig(n.Budget), fecfg), nil
	case KindXBC:
		cfg := xbcore.DefaultConfig(n.Budget)
		cfg.Check = n.Check
		return xbcore.New(cfg, fecfg), nil
	default:
		return nil, fmt.Errorf("jobspec: unknown frontend %q", n.Frontend)
	}
}

// Execute runs the job: the stream comes from the shared content-addressed
// corpus (so jobs differing only in cache configuration share one
// generation), the frontend runs on one session, and the interval
// estimate is attached when the spec carries a core config. This is the
// one execution path behind the service worker, xbcctl selfcheck, and a
// direct CLI run of the same spec — bit-identical by construction.
// Execute recovers no panic: the service runs it inside runner.RunOne,
// which is the panic-isolation boundary.
//
// The spec's Fidelity routes the run: full runs simulate every uop (and,
// when a snapshot manager is attached, skip the warmup prefix via a
// warm-state snapshot — an exact shortcut, not an approximation); sampled
// and estimate runs go through internal/sampling and carry an error bound.
func Execute(s Spec) (Result, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return Result{}, err
	}
	stream, err := corpus.Stream(*n.Program, n.Uops)
	if err != nil {
		return Result{}, err
	}
	mgr := SnapshotManager()
	if n.Check {
		// The checker validates invariants over the whole run; a
		// restored prefix would hide it from the checker.
		mgr = nil
	}
	return execute(n, stream.Records(), mgr, analyzeCached)
}

// ResolveWorkload finds a built-in workload by name: the 21 paper traces
// first, then the 5 micro workloads — the lookup order every CLI used
// individually before it was shared here.
func ResolveWorkload(name string) (workload.Workload, bool) {
	if w, ok := workload.ByName(name); ok {
		return w, true
	}
	return workload.MicroByName(name)
}

// ParseWorkloadList resolves a comma-separated workload-name list (the
// -traces flag shape). An empty list is an empty slice, not an error.
func ParseWorkloadList(csv string) ([]workload.Workload, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []workload.Workload
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		w, ok := ResolveWorkload(name)
		if !ok {
			return nil, fmt.Errorf("jobspec: unknown workload %q (known: %s; micro: %s)",
				name, strings.Join(workload.Names(), ", "), strings.Join(microNames(), ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// microNames lists the micro-workload names for error messages.
func microNames() []string {
	var out []string
	for _, w := range workload.Micro() {
		out = append(out, w.Name)
	}
	return out
}

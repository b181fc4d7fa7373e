package xbc_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"xbc"
)

// The golden-metrics equivalence test: every frontend model is replayed
// over fixed synthetic streams and its full Metrics struct — every
// counter and every Extra measurement, bit for bit — is compared against
// testdata/golden_metrics.json. The golden file was generated from the
// pre-optimization (seed) implementation, so this test proves that the
// allocation-free hot-path rewrites are observationally identical to the
// original loops. Regenerate with:
//
//	go test -run TestGoldenMetrics -update-golden
//
// after an INTENTIONAL metrics change only.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_metrics.json from the current implementation")

const goldenPath = "testdata/golden_metrics.json"

// goldenUops keeps the test fast while covering thousands of build and
// delivery episodes per frontend.
const goldenUops = 120_000

// goldenMetrics is the serialized form of one run's Metrics. Floats are
// stored as IEEE-754 bit patterns so "bit-identical" means exactly that —
// no decimal round-tripping is involved in the comparison.
type goldenMetrics struct {
	Counters map[string]uint64 `json:"counters"`
	Extra    map[string]uint64 `json:"extra_bits"`
	ExtraStr map[string]string `json:"extra,omitempty"` // human-readable mirror, not compared
}

func metricsToGolden(m xbc.Metrics) goldenMetrics {
	g := goldenMetrics{
		Counters: map[string]uint64{
			"insts":            m.Insts,
			"uops":             m.Uops,
			"delivered_uops":   m.DeliveredUops,
			"build_uops":       m.BuildUops,
			"delivery_fetches": m.DeliveryFetches,
			"delivery_cycles":  m.DeliveryCycles,
			"build_cycles":     m.BuildCycles,
			"penalty_cycles":   m.PenaltyCycles,
			"delivery_penalty": m.DeliveryPenalty,
			"cond_exec":        m.CondExec,
			"cond_miss":        m.CondMiss,
			"ind_exec":         m.IndExec,
			"ind_miss":         m.IndMiss,
			"ret_exec":         m.RetExec,
			"ret_miss":         m.RetMiss,
			"struct_misses":    m.StructMisses,
			"mode_switches":    m.ModeSwitches,
		},
		Extra:    map[string]uint64{},
		ExtraStr: map[string]string{},
	}
	for k, v := range m.Extra {
		g.Extra[k] = math.Float64bits(v)
		g.ExtraStr[k] = fmt.Sprintf("%g", v)
	}
	return g
}

// goldenModels returns the frontends covered by the equivalence test; the
// set spans every optimized loop (IC, decoded, TC, TC+path-assoc, BBTC,
// XBC, XBC+next-XB prediction).
func goldenModels() map[string]func() xbc.Frontend {
	return map[string]func() xbc.Frontend{
		"ic":      xbc.NewICFrontend,
		"decoded": func() xbc.Frontend { return xbc.NewDecodedFrontend(32 * 1024) },
		"tc":      func() xbc.Frontend { return xbc.NewTraceCacheFrontend(32 * 1024) },
		"tc-path": func() xbc.Frontend {
			cfg := xbc.DefaultTCConfig(32 * 1024)
			cfg.PathAssoc = true
			return xbc.NewTraceCacheFrontendWith(cfg, xbc.DefaultFrontendConfig())
		},
		"bbtc": func() xbc.Frontend { return xbc.NewBBTCFrontend(32 * 1024) },
		"xbc":  func() xbc.Frontend { return xbc.NewXBCFrontend(32 * 1024) },
		"xbc-nxb": func() xbc.Frontend {
			cfg := xbc.DefaultXBCConfig(32 * 1024)
			cfg.NextXB = true
			return xbc.NewXBCFrontendWith(cfg, xbc.DefaultFrontendConfig())
		},
	}
}

var goldenWorkloads = []string{"gcc", "word", "doom"}

func computeGolden(t testing.TB) map[string]goldenMetrics {
	out := make(map[string]goldenMetrics)
	for _, wn := range goldenWorkloads {
		w, ok := xbc.WorkloadByName(wn)
		if !ok {
			t.Fatalf("unknown workload %q", wn)
		}
		s, err := xbc.Generate(w, goldenUops)
		if err != nil {
			t.Fatal(err)
		}
		for fn, mk := range goldenModels() {
			m := xbc.Run(mk(), s)
			out[wn+"/"+fn] = metricsToGolden(m)
		}
	}
	return out
}

func TestGoldenMetricsEquivalence(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", goldenPath, len(got))
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenMetrics
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		t.Errorf("run count changed: got %d, golden %d", len(got), len(want))
	}
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing from current implementation", k)
			continue
		}
		w := want[k]
		for ck, wv := range w.Counters {
			if gv := g.Counters[ck]; gv != wv {
				t.Errorf("%s: counter %s = %d, golden %d", k, ck, gv, wv)
			}
		}
		if len(g.Extra) != len(w.Extra) {
			t.Errorf("%s: extra key count %d, golden %d", k, len(g.Extra), len(w.Extra))
		}
		for ek, wv := range w.Extra {
			gv, ok := g.Extra[ek]
			if !ok {
				t.Errorf("%s: extra %q missing", k, ek)
				continue
			}
			if gv != wv {
				t.Errorf("%s: extra %q = %v (bits %#x), golden %v (bits %#x)",
					k, ek, math.Float64frombits(gv), gv, math.Float64frombits(wv), wv)
			}
		}
		for ek := range g.Extra {
			if _, ok := w.Extra[ek]; !ok {
				t.Errorf("%s: unexpected extra %q = %v", k, ek, math.Float64frombits(g.Extra[ek]))
			}
		}
	}
}

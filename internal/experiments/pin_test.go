package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"xbc/internal/service/jobspec"
	"xbc/internal/stats"
)

// pinnedTables renders every table the figures and studies print under
// o, in the order cmd/experiments prints them with -fig all -extra all.
func pinnedTables(t *testing.T, o Options, figs, studies bool) string {
	t.Helper()
	var tables []*stats.Table
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	if figs {
		f1, err := Figure1(o)
		must(err)
		f8, err := Figure8(o)
		must(err)
		f9, err := Figure9(o)
		must(err)
		tables = append(tables, f1.Table, f8.Table, f9.Table)
	}
	f10, err := Figure10(o)
	must(err)
	tables = append(tables, f10.Table)
	if studies {
		for _, study := range []func(Options) (*stats.Table, error){
			Redundancy, Frontends, Ablation, PathAssociativity, XBTBSweep,
			RenamerSweep, ContextSwitch, Phases, IPCEstimate,
		} {
			tb, err := study(o)
			must(err)
			tables = append(tables, tb)
		}
	}
	var b strings.Builder
	for _, tb := range tables {
		if err := tb.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestFigureTablesPinned pins every rendered number of the figures and
// the extra studies: any change to how a cell is built, keyed or run
// that moves a single digit fails here. The sampled case runs Figure 10
// on a stream long enough that the rung really samples.
func TestFigureTablesPinned(t *testing.T) {
	ws, err := jobspec.ParseWorkloadList("gcc,word,doom")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Workloads, o.UopsPerTrace, o.Parallel = ws, 20_000, 2
	sampled := o
	sampled.Workloads, sampled.UopsPerTrace, sampled.Fidelity = ws[:1], 300_000, jobspec.FidelitySampled
	for _, c := range []struct {
		name, want string
		out        func() string
	}{
		{"all figures and studies, 20k uops", "35b99fc7be0aac9c0b9fe82e594f6c59138f6e94e86d56b7ae6d806e784d2dbf", func() string { return pinnedTables(t, o, true, true) }},
		{"Figure 10 sampled, 300k uops", "0451153de87b9f587869305831b5c83318aecd1daa44ec8aaccaaee498739702", func() string { return pinnedTables(t, sampled, false, false) }},
	} {
		sum := sha256.Sum256([]byte(c.out()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: tables hash to %s, pinned %s", c.name, got, c.want)
		}
	}
}

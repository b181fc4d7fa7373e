package jobspec

import (
	"fmt"
	"strings"

	"xbc/internal/frontend"
	"xbc/internal/tcache"
	"xbc/internal/xbcore"
)

// Geometry moves a frontend away from the paper's configuration along
// the axes that Figure 10 and the mechanism studies vary. A zero leaf is
// the paper's value. Normalize drops the leaves the spec's frontend kind
// does not have and the leaves equal to its default, and an empty
// geometry becomes nil, so a default geometry is the same job as none.
type Geometry struct {
	// Ways is the associativity of the xbc or tc data array (paper: 2
	// and 4). The set count is re-derived from the budget, rounded down
	// to a power of two.
	Ways int `json:"ways,omitempty"`
	// XBTBEntries is the xbc's XBTB capacity, a power of two (paper: 8192).
	XBTBEntries int `json:"xbtb_entries,omitempty"`
	// RenamerWidth is the uops the renamer accepts per cycle, for every
	// kind (paper: 8).
	RenamerWidth int `json:"renamer_width,omitempty"`
	// Variant names one mechanism change, one of Variants(): an xbc
	// feature flag, direction predictor or bank layout, or the tc's path
	// associativity.
	Variant string `json:"variant,omitempty"`
}

// Geometry bounds: every geometry inside them builds a valid model.
const (
	maxWays         = 16
	maxXBTBEntries  = 1 << 16
	maxRenamerWidth = 64
)

// VariantPathAssoc is the tc's one variant, the [Jaco97]-style path
// associative trace cache. Every other variant is the xbc's.
const VariantPathAssoc = "path-assoc"

// paperXBC and paperWays hold the paper's values that Normalize drops.
var (
	paperXBC  = xbcore.DefaultConfig(DefaultBudget)
	paperWays = map[string]int{KindXBC: paperXBC.Ways, KindTC: tcache.DefaultConfig(DefaultBudget).Ways}
)

// xbcVariants are the xbc's variants, the ablations of DESIGN.md, in
// report order. Each makes one change to the paper's configuration.
var xbcVariants = []struct {
	name  string
	apply func(*xbcore.Config)
}{
	{"no-promotion", func(c *xbcore.Config) { c.Promotion = false }},
	{"no-complex-xb", func(c *xbcore.Config) { c.ComplexXB = false }},
	{"no-set-search", func(c *xbcore.Config) { c.SetSearch = false }},
	{"no-smart-placement", func(c *xbcore.Config) { c.SmartPlacement = false }},
	{"no-dynamic-placement", func(c *xbcore.Config) { c.DynamicPlacement = false }},
	{"1-xb-per-cycle", func(c *xbcore.Config) { c.XBsPerCycle = 1 }},
	{"4-xbs-per-cycle", func(c *xbcore.Config) { c.XBsPerCycle = 4 }},
	{"oracle", func(c *xbcore.Config) { c.Oracle = true }},
	{"bimodal-xbp", func(c *xbcore.Config) { c.XBP = xbcore.XBPBimodal }},
	{"tournament-xbp", func(c *xbcore.Config) { c.XBP = xbcore.XBPTournament }},
	{"next-xb", func(c *xbcore.Config) { c.NextXB = true }},
	{"2-banks", func(c *xbcore.Config) {
		c.Banks, c.BankUops = 2, 8
		c.Sets = sizeToSets(c.UopCapacity(), c.Banks*c.BankUops*c.Ways)
	}},
	{"8-banks", func(c *xbcore.Config) {
		c.Banks, c.BankUops = 8, 2
		c.Sets = sizeToSets(c.UopCapacity(), c.Banks*c.BankUops*c.Ways)
	}},
}

// Variants returns every Geometry.Variant: the xbc's in report order,
// then the tc's.
func Variants() []string {
	var out []string
	for _, v := range xbcVariants {
		out = append(out, v.name)
	}
	return append(out, VariantPathAssoc)
}

// variantKind returns the frontend kind variant v applies to, or "" when
// no variant has that name.
func variantKind(v string) string {
	if v == VariantPathAssoc {
		return KindTC
	}
	for _, x := range xbcVariants {
		if x.name == v {
			return KindXBC
		}
	}
	return ""
}

// normalize returns g without the leaves frontend kind does not have and
// the leaves equal to the paper's values, or nil when none is left. An
// out-of-range leaf or unknown variant stays, for validate to report.
func (g *Geometry) normalize(kind string) *Geometry {
	if g == nil {
		return nil
	}
	n := *g
	if ways, ok := paperWays[kind]; !ok || n.Ways == ways {
		n.Ways = 0
	}
	if kind != KindXBC || n.XBTBEntries == paperXBC.XBTBSets*paperXBC.XBTBWays {
		n.XBTBEntries = 0
	}
	if n.RenamerWidth == frontend.DefaultConfig().RenamerWidth {
		n.RenamerWidth = 0
	}
	if k := variantKind(n.Variant); k != "" && k != kind {
		n.Variant = ""
	}
	if n == (Geometry{}) {
		return nil
	}
	return &n
}

// validate bounds every leaf, so that the models NewFrontend builds from
// g are valid.
func (g *Geometry) validate() error {
	switch {
	case g == nil:
		return nil
	case g.Ways < 0 || g.Ways > maxWays:
		return fmt.Errorf("jobspec: geometry ways %d outside 1..%d", g.Ways, maxWays)
	case g.XBTBEntries < 0 || g.XBTBEntries > maxXBTBEntries || g.XBTBEntries&(g.XBTBEntries-1) != 0 ||
		g.XBTBEntries != 0 && g.XBTBEntries < paperXBC.XBTBWays:
		return fmt.Errorf("jobspec: geometry xbtb_entries %d is not a power of two in %d..%d",
			g.XBTBEntries, paperXBC.XBTBWays, maxXBTBEntries)
	case g.RenamerWidth < 0 || g.RenamerWidth > maxRenamerWidth:
		return fmt.Errorf("jobspec: geometry renamer_width %d outside 1..%d", g.RenamerWidth, maxRenamerWidth)
	case g.Variant != "" && variantKind(g.Variant) == "":
		return fmt.Errorf("jobspec: unknown geometry variant %q (want one of %s)", g.Variant, strings.Join(Variants(), ", "))
	}
	return nil
}

// frontendConfig is the paper's timing configuration with the spec's
// renamer width.
func (s Spec) frontendConfig() frontend.Config {
	c := frontend.DefaultConfig()
	if s.Geometry != nil && s.Geometry.RenamerWidth != 0 {
		c.RenamerWidth = s.Geometry.RenamerWidth
	}
	return c
}

// xbc returns c, an xbc configuration of the given budget, moved by g:
// the ways first, then the XBTB, then the variant. c is taken and
// returned by value, so a spec without a geometry builds its
// configuration on the stack.
func (g *Geometry) xbc(c xbcore.Config, budget int) xbcore.Config {
	if g == nil {
		return c
	}
	if g.Ways != 0 {
		c.Ways = g.Ways
		c.Sets = sizeToSets(budget, c.Banks*c.BankUops*c.Ways)
	}
	if g.XBTBEntries != 0 {
		c.XBTBSets = sizeToSets(g.XBTBEntries, c.XBTBWays)
	}
	for _, v := range xbcVariants {
		if v.name == g.Variant {
			v.apply(&c)
		}
	}
	return c
}

// tc returns c, a tc configuration of the given budget, moved by g.
func (g *Geometry) tc(c tcache.Config, budget int) tcache.Config {
	if g == nil {
		return c
	}
	if g.Ways != 0 {
		c.Ways = g.Ways
		c.Sets = sizeToSets(budget, c.MaxUops*c.Ways)
	}
	c.PathAssoc = g.Variant == VariantPathAssoc
	return c
}

// sizeToSets converts a capacity and a per-set capacity to a power-of-two
// set count, at least one.
func sizeToSets(capacity, perSet int) int {
	sets := capacity / perSet
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p
}

// Package decoded implements the decoded-instruction (uop) cache frontend
// of section 2.2 of the paper: the decoder's output is cached in fixed-size
// uop lines so hits skip variable-length decode. Lines hold consecutive
// uops cut at taken transfers and at the line capacity, so the structure
// suffers the IC's one-run-per-cycle bandwidth limit plus fragmentation —
// exactly the weaknesses the paper cites for it.
package decoded

import (
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/isa"
)

// Config describes the decoded cache geometry.
type Config struct {
	Sets     int // power of two
	Ways     int
	LineUops int // uop slots per line (6 is typical)
}

// DefaultConfig sizes the decoded cache to a uop budget with 8-way sets of
// 6-uop lines.
func DefaultConfig(uopBudget int) Config {
	c := Config{Ways: 8, LineUops: 6}
	sets := uopBudget / (c.Ways * c.LineUops)
	if sets < 1 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	c.Sets = p
	return c
}

// Validate reports the first problem with the geometry.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("decoded: sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways < 1 || c.LineUops < 1 {
		return fmt.Errorf("decoded: bad ways %d / line uops %d", c.Ways, c.LineUops)
	}
	return nil
}

// UopCapacity returns the cache's uop budget.
func (c Config) UopCapacity() int { return c.Sets * c.Ways * c.LineUops }

type lineInst struct {
	ip      isa.Addr
	numUops uint8
	class   isa.Class
}

type line struct {
	valid   bool
	startIP isa.Addr
	uops    int
	insts   []lineInst
	stamp   uint64
}

// Frontend is the decoded-cache instruction-supply model.
type Frontend struct {
	cfg   Config
	fecfg frontend.Config
}

// New returns a decoded-cache frontend.
func New(cfg Config, fecfg frontend.Config) *Frontend {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Frontend{cfg: cfg, fecfg: fecfg}
}

// Name identifies the model.
func (f *Frontend) Name() string { return "decoded" }

var _ frontend.Frontend = (*Frontend)(nil)

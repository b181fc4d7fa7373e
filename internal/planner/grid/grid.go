// Package grid expands a sweep grid into canonicalized, plannable cells.
// It is the jobspec-aware layer above the generic planner: the planner
// dedups and orders opaque (key, locality) cells; this package knows how
// a sweep request's axes become jobspec.Spec cells, what their
// content-addressed keys are, and which cells share a trace stream. Both
// sweep entry points — the service's POST /v1/sweeps and the experiment
// CLI — expand through here, so "two cells are the same work" means
// exactly one thing everywhere.
package grid

import (
	"fmt"

	"xbc/internal/interval"
	"xbc/internal/service/jobspec"
	"xbc/internal/workload"
)

// Grid is a sweep request: the cross product of frontends x workloads x
// budgets, each cell sharing uops/check/core. Empty axes default like the
// service API: {xbc}, all paper workloads, {jobspec.DefaultBudget}.
type Grid struct {
	Frontends []string
	Workloads []string
	Budgets   []int
	// Fidelities is the fidelity-ladder axis; empty defaults to {full}.
	Fidelities []string
	Uops       uint64
	Check      bool
	Core       *interval.CoreConfig
}

// WithDefaults returns the grid with empty axes filled.
func (g Grid) WithDefaults() Grid {
	if len(g.Frontends) == 0 {
		g.Frontends = []string{jobspec.KindXBC}
	}
	if len(g.Workloads) == 0 {
		g.Workloads = workload.Names()
	}
	if len(g.Budgets) == 0 {
		g.Budgets = []int{jobspec.DefaultBudget}
	}
	if len(g.Fidelities) == 0 {
		g.Fidelities = []string{jobspec.FidelityFull}
	}
	return g
}

// Cell is one canonicalized grid cell: the spec as submitted, its
// normalized form, its content key, and its trace-locality group.
type Cell struct {
	Spec     jobspec.Spec // as expanded from the grid axes
	Norm     jobspec.Spec // Spec.Normalize(): defaults filled, workload resolved
	Key      string       // jobspec content key (hex SHA-256)
	Locality string       // trace-stream identity: cells sharing it share a corpus entry
}

// Expand canonicalizes the full grid in deterministic order (frontends
// outer, workloads, budgets, fidelities inner). Validation is
// all-or-nothing: the first invalid cell fails the whole expansion before
// any caller enqueues anything.
func Expand(g Grid) ([]Cell, error) {
	g = g.WithDefaults()
	cells := make([]Cell, 0, len(g.Frontends)*len(g.Workloads)*len(g.Budgets)*len(g.Fidelities))
	for _, fe := range g.Frontends {
		for _, wl := range g.Workloads {
			for _, budget := range g.Budgets {
				for _, fid := range g.Fidelities {
					spec := jobspec.Spec{
						Frontend: fe,
						Workload: wl,
						Budget:   budget,
						Fidelity: fid,
						Uops:     g.Uops,
						Check:    g.Check,
						Core:     g.Core,
					}
					c, err := Canonicalize(spec)
					if err != nil {
						return nil, fmt.Errorf("grid cell %s: %w", spec.Label(), err)
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells, nil
}

// Canonicalize normalizes and validates one spec into a plannable cell.
// Its locality is the stream key, exactly what the corpus keys by, so
// planner ordering keeps cells that replay one generated stream adjacent
// regardless of frontend or budget.
func Canonicalize(spec jobspec.Spec) (Cell, error) {
	// Normalizing resolves a workload name, the costly step; the keys of
	// the normalized spec resolve nothing again and validate it.
	norm := spec.Normalize()
	key, err := norm.Key()
	if err != nil {
		return Cell{}, err
	}
	stream, err := norm.StreamKey()
	if err != nil {
		return Cell{}, err
	}
	return Cell{Spec: spec, Norm: norm, Key: key, Locality: stream.String()}, nil
}

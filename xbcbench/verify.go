package main

import (
	"bytes"
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/sampling"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
	"xbc/internal/trace"
)

// gate is the correctness gate. It runs after the timed phase; each
// mismatch is one failed operation.
type gate struct {
	checked, failed int
	notes           []string
}

// check compares one served result with what it must equal.
func (g *gate) check(what string, want, got []byte) {
	g.checked++
	if !bytes.Equal(want, got) {
		g.failed++
		g.notes = append(g.notes, fmt.Sprintf("%s: served %.300s; want %.300s", what, got, want))
	}
}

// checkServed compares job j, served for the spec the client asked for,
// with a reference computed outside the service. An exact request must be
// served an exact result; an approximate one may be served either.
func (g *gate) checkServed(asked jobspec.Spec, j api.Job) error {
	fid := j.Fidelity
	if asked.Normalize().Fidelity == "" && fid != jobspec.FidelityFull {
		fid = jobspec.FidelityFull // the reference for what should have been served
	}
	want, err := reference(asked, fid)
	if err != nil {
		return err
	}
	g.check(asked.Label()+" "+j.ID, want, servedView(j))
	return nil
}

// reference computes the result the service must serve for spec at the
// given fidelity: exact results from a direct jobspec.Execute with warm-
// state snapshots detached, so every uop is simulated; sampled results
// from an uncached sampling.Run over a freshly generated stream, with the
// sampling configuration the rung prescribes.
func reference(spec jobspec.Spec, fidelity string) ([]byte, error) {
	n := spec.Normalize()
	if fidelity == jobspec.FidelityFull {
		n.Fidelity = ""
		mgr := jobspec.SnapshotManager()
		jobspec.SetSnapshotManager(nil)
		defer jobspec.SetSnapshotManager(mgr)
		r, err := jobspec.Execute(n)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", n.Label(), err)
		}
		return executedView(r), nil
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	s, err := trace.Generate(*n.Program, n.Uops)
	if err != nil {
		return nil, err
	}
	fe, err := n.NewFrontend()
	if err != nil {
		return nil, err
	}
	sf, ok := fe.(frontend.SessionFrontend)
	if !ok {
		return nil, fmt.Errorf("frontend %s has no sessions", n.Frontend)
	}
	r, err := sampling.Run(sf, s.Records(), frontend.DefaultConfig(), jobspec.SamplingConfig(fidelity))
	if err != nil {
		return nil, fmt.Errorf("reference sampled run of %s: %w", n.Label(), err)
	}
	return sampledView(r, fidelity), nil
}

// served is one result the client was served, kept for the gate.
type served struct {
	asked jobspec.Spec
	job   api.Job
}

// checkSubset checks a seeded subset of k served results against their
// references.
func (g *gate) checkSubset(seed int64, results []served, k int) error {
	for _, i := range subset(seed, len(results), k) {
		if err := g.checkServed(results[i].asked, results[i].job); err != nil {
			return err
		}
	}
	return nil
}

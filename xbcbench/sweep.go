package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"xbc/internal/service"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// The sweep workload: one node whose store was filled by a first server
// life in another process, so that the timed phase decodes each trace from
// the store on first touch. Sweeps go over one workload at a time.
var (
	sweepWorkloads = []string{"gcc", "compress", "li", "ijpeg", "vortex", "doom", "duke3d", "descent"}
	sweepLengths   = [2]uint64{200_000, 300_000}
)

// sweepBlock is how many consecutive sweeps share one workload. Within a
// block, lengths alternate and each budget is used at both lengths, so a
// block has new cells, cells that restore a warm-state snapshot saved at
// the other length, and cells answered from the result cache. A workload
// comes back only after the seven others, by when more than the result
// cache's 256 entries are newer than its cells: those come from the store.
const sweepBlock = 4

// sweepTier is the number of budgets in each of the three budget tiers;
// a workload has one block per budget in a tier.
const sweepTier = 21

type sweep struct {
	seed     int64
	requests []api.SweepRequest
	served   []served
}

func (w *sweep) rate() float64 { return 10 }

// sweepRequests is the sweep list of a seed.
func sweepRequests(seed int64, n int) []api.SweepRequest {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(sweepWorkloads))
	// Fresh budgets per workload, 2K..64K in 1K steps, in three tiers of
	// 21; each block takes one budget of each tier, so every block has
	// the same mix of small, middling and large caches.
	tiers := make([][3][]int, len(sweepWorkloads))
	for i := range tiers {
		for t := range tiers[i] {
			for _, k := range rng.Perm(sweepTier) {
				tiers[i][t] = append(tiers[i][t], (2+t*sweepTier+k)*1024)
			}
		}
	}
	visits := make([]int, len(sweepWorkloads))
	var out []api.SweepRequest
	for blk := 0; len(out) < n; blk++ {
		wi := order[blk%len(order)]
		v := visits[wi] % sweepTier // past 21 visits, budgets would repeat
		visits[wi]++
		b1, b2, b3 := tiers[wi][0][v], tiers[wi][1][v], tiers[wi][2][v]
		first := rng.Intn(2)
		budgets := [sweepBlock][]int{{b1, b2}, {b1, b3}, {b2, b3}, {b1, b2}}
		for s := 0; s < sweepBlock; s++ {
			out = append(out, api.SweepRequest{
				Frontends: jobspec.Kinds(),
				Workloads: []string{sweepWorkloads[wi]},
				Budgets:   budgets[s],
				// Sampled first: the planner submits a grid in grid order, so
				// a sampled cell never races its own sweep's full sibling,
				// which would serve it whenever it finished first.
				Fidelities: []string{jobspec.FidelitySampled, jobspec.FidelityFull},
				Uops:       sweepLengths[(first+s)%2],
			})
		}
	}
	return out[:n]
}

// sweepLife1 is the first server life: it generates every trace the
// sweeps use (through one ic job per trace), drains, and closes the store.
func sweepLife1(dir string) error {
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	srv := service.New(service.Options{JobTimeout: 5 * time.Minute, Clock: time.Now, Store: st})
	var jobs []*service.Job
	for _, name := range sweepWorkloads {
		for _, uops := range sweepLengths {
			j, _, err := srv.Submit(jobspec.Spec{Frontend: jobspec.KindIC, Workload: name, Uops: uops})
			if err != nil {
				srv.Drain()
				st.Close()
				return err
			}
			jobs = append(jobs, j)
		}
	}
	for _, j := range jobs {
		<-j.Done()
		if j.State() != service.JobDone {
			srv.Drain()
			st.Close()
			return fmt.Errorf("job %s: %s", j.Spec.Label(), j.State())
		}
	}
	srv.Drain()
	return st.Close()
}

// setUp runs the first server life in a child process, then reopens its
// store (replaying the journal) and starts the second life.
func (w *sweep) setUp(b *bench, rep int) error {
	w.requests = sweepRequests(w.seed, b.n)
	dir := filepath.Join(b.dir, "sweep-"+strconv.Itoa(rep))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, "--sweep-life1", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("first server life: %w", err)
	}
	return b.startNodes([]string{dir}, 0)
}

func (w *sweep) run(b *bench) error {
	base := b.nodes[0].name
	for i, req := range w.requests {
		cells := len(req.Frontends) * len(req.Budgets) * len(req.Fidelities)
		b.request(i, func() (int, int) {
			resp, err := b.c.sweep(base, req)
			if err != nil {
				fmt.Fprintln(b.stderr, "xbcbench: sweep:", err)
				return cells, cells
			}
			if resp.Plan != nil {
				b.plan.Planned += resp.Plan.Planned
				b.plan.Deduped += resp.Plan.Deduped
				b.plan.CacheHits += resp.Plan.CacheHits
				b.plan.StoreHits += resp.Plan.StoreHits
				b.plan.Coalesced += resp.Plan.Coalesced
				b.plan.Simulated += resp.Plan.Simulated
			}
			// Grid order is frontends outer, workloads, budgets, then
			// fidelities inner; duplicate cells alias one job.
			failed := cells - len(resp.Jobs)
			seen := make(map[string]bool)
			for k, sr := range resp.Jobs {
				if seen[sr.ID] {
					continue
				}
				seen[sr.ID] = true
				j, err := b.c.result(base, sr.ID, sr.Status)
				if err != nil {
					fmt.Fprintln(b.stderr, "xbcbench: sweep result:", err)
					failed++
					continue
				}
				b.noteSubmitted(sr.Status, j)
				w.served = append(w.served, served{cellSpec(req, k), j})
			}
			return cells, failed
		})
	}
	return nil
}

// cellSpec is the spec of grid cell k of a one-workload sweep.
func cellSpec(req api.SweepRequest, k int) jobspec.Spec {
	nf, nb := len(req.Fidelities), len(req.Budgets)
	return jobspec.Spec{
		Frontend: req.Frontends[k/(nb*nf)],
		Workload: req.Workloads[0],
		Budget:   req.Budgets[(k/nf)%nb],
		Fidelity: req.Fidelities[k%nf],
		Uops:     req.Uops,
	}
}

// verify checks a seeded subset of the distinct results served.
func (w *sweep) verify(b *bench, g *gate) error {
	var full, sampled []served
	for _, s := range w.served {
		if s.job.Fidelity == jobspec.FidelityFull {
			full = append(full, s)
		} else {
			sampled = append(sampled, s)
		}
	}
	if err := g.checkSubset(w.seed, full, 6); err != nil {
		return err
	}
	return g.checkSubset(w.seed+1, sampled, 4)
}

func (w *sweep) inputs(b *bench) layerInputs {
	var raw []jobspec.Spec
	for _, req := range w.requests {
		for k := 0; k < len(req.Frontends)*len(req.Budgets)*len(req.Fidelities); k++ {
			raw = append(raw, cellSpec(req, k))
		}
	}
	return layerInputs{execs: b.tr.executions(), raw: raw, dirs: []string{b.nodes[0].dir}}
}

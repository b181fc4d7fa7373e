package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"xbc/internal/service/jobspec"
	"xbc/internal/workload"
)

// The cold workload: one node with a fresh store; every job names one of
// the 21 paper workloads at a length no earlier job in the run used, so
// every job misses the corpus and generates its trace.
const (
	// Jobs under 200k uops capture their warm-state snapshot at half their
	// length, so no two cold jobs share one: snapshots are saved, never hit.
	coldMinUops      = 100_000
	coldLengthSpread = 50_000
	coldSampledPer10 = 2      // sampled jobs in every 10
	coldWarmupUops   = 60_000 // set-up's warm-up job; shorter than any timed job
)

type cold struct {
	seed   int64
	jobs   []jobspec.Spec
	served []served
}

func (w *cold) rate() float64 { return 4 }

// coldJobs is the cold job list of a seed: each job names a paper
// workload at a length not used before, the frontends rotate over all
// five, and a seeded share runs sampled. The draws are stratified, so the
// mix is the same for every seed and only the order differs: each run of
// 21 jobs names every workload once, and each run of 10 has two sampled.
func coldJobs(seed int64, n int) []jobspec.Spec {
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	kinds := jobspec.Kinds()
	lengths := rng.Perm(coldLengthSpread)
	first := rng.Intn(len(kinds))
	var order, sampled []int
	jobs := make([]jobspec.Spec, n)
	for i := range jobs {
		if i%len(names) == 0 {
			order = rng.Perm(len(names))
		}
		if i%10 == 0 {
			sampled = rng.Perm(10)
		}
		jobs[i] = jobspec.Spec{
			Frontend: kinds[(first+i)%len(kinds)],
			Workload: names[order[i%len(names)]],
			Uops:     uint64(coldMinUops + lengths[i%coldLengthSpread]),
		}
		if sampled[i%10] < coldSampledPer10 {
			jobs[i].Fidelity = jobspec.FidelitySampled
		}
	}
	return jobs
}

// setUp starts the node on a fresh store and sends one warm-up job, so the
// timed phase does not pay for the first connection and first-touch code
// paths; the warm-up's length is outside the timed jobs' range.
func (w *cold) setUp(b *bench, rep int) error {
	// Whole rounds of the 21 workloads, so every seed has the same mix.
	names := len(workload.Names())
	w.jobs = coldJobs(w.seed, (b.n+names-1)/names*names)
	if err := b.startNodes([]string{filepath.Join(b.dir, fmt.Sprintf("cold-%d", rep))}, 0); err != nil {
		return err
	}
	n := b.nodes[0]
	spec := jobspec.Spec{Frontend: jobspec.KindXBC, Workload: "gcc", Uops: uint64(coldWarmupUops + rep)}
	sr, err := b.c.submit(n.name, spec)
	if err != nil {
		return err
	}
	if _, err := b.c.result(n.name, sr.ID, sr.Status); err != nil {
		return err
	}
	return awaitStored(n.st, sr.ID)
}

func (w *cold) run(b *bench) error {
	base := b.nodes[0].name
	for i, spec := range w.jobs {
		b.request(i, func() (int, int) {
			sr, err := b.c.submit(base, spec)
			if err != nil {
				fmt.Fprintln(b.stderr, "xbcbench: cold submit:", err)
				return 1, 1
			}
			j, err := b.c.result(base, sr.ID, sr.Status)
			if err != nil {
				fmt.Fprintln(b.stderr, "xbcbench: cold result:", err)
				return 1, 1
			}
			b.noteSubmitted(sr.Status, j)
			w.served = append(w.served, served{spec, j})
			return 1, 0
		})
	}
	return nil
}

// verify checks a seeded subset of the full and of the sampled results.
func (w *cold) verify(b *bench, g *gate) error {
	var full, sampled []served
	for _, s := range w.served {
		if s.asked.Fidelity == "" {
			full = append(full, s)
		} else {
			sampled = append(sampled, s)
		}
	}
	if err := g.checkSubset(w.seed, full, 5); err != nil {
		return err
	}
	return g.checkSubset(w.seed+1, sampled, 3)
}

func (w *cold) inputs(b *bench) layerInputs {
	return layerInputs{
		execs:         b.tr.executions(),
		raw:           w.jobs,
		dirs:          []string{b.nodes[0].dir},
		checkCoverage: true,
	}
}

package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	"xbc/internal/service"
	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// The cached workload: three nodes in a ring, each with its own store.
// Set-up computes every key once; the timed phase resubmits keys drawn
// Zipf-skewed, round-robin across the nodes, so no simulation runs.
var cachedWorkloads = []string{"gcc", "li", "vortex", "doom"}

const (
	cachedNodes = 3
	cachedUops  = 20_000
	// cachedBudgets budgets per non-ic frontend and workload, and
	// cachedPorts ic port counts per workload, make 1552 keys: over twice
	// the ring's 3 x 256 result-cache entries, so the Zipf tail reads
	// through to the owner's store.
	cachedBudgets = 96
	cachedPorts   = 4
	cachedZipfS   = 1.1
	// cachedSetupWorkers bounds the jobs set-up keeps in flight.
	cachedSetupWorkers = 8
)

type cached struct {
	seed  int64
	keys  []jobspec.Spec
	want  [][sha256.Size]byte // per key: hash of the result set-up recorded
	ids   []string            // per key: job id
	draws []int               // per request: key index
	got   [][sha256.Size]byte // per request: hash of the result served
	gotOK []bool
}

func (w *cached) rate() float64 { return 400 }

// cachedKeys is the key set of set-up repetition rep. Repetitions differ in
// length, so each generates its traces afresh.
func cachedKeys(rep int) []jobspec.Spec {
	var keys []jobspec.Spec
	uops := uint64(cachedUops + rep)
	for _, name := range cachedWorkloads {
		for p := 1; p <= cachedPorts; p++ {
			keys = append(keys, jobspec.Spec{Frontend: jobspec.KindIC, Workload: name, Uops: uops, Ports: p})
		}
		for _, fe := range jobspec.Kinds()[1:] {
			for k := 1; k <= cachedBudgets; k++ {
				keys = append(keys, jobspec.Spec{Frontend: fe, Workload: name, Uops: uops, Budget: 1024 * k})
			}
		}
	}
	return keys
}

// cachedDraws is the request list of a seed: key indices drawn from a Zipf
// distribution over a seeded permutation of the keys, so which keys are
// hot, and hence which nodes own them, varies with the seed.
func cachedDraws(seed int64, n, keys int) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(keys)
	z := rand.NewZipf(rng, cachedZipfS, 1, uint64(keys-1))
	draws := make([]int, n)
	for i := range draws {
		draws[i] = perm[z.Uint64()]
	}
	return draws
}

// setUp starts the ring and computes every key on its owner, in-process
// and several at a time, then waits until each owner's store holds its
// results. Snapshots are off, as in the cluster test suite: with them every
// one of the 1552 short jobs would write a warm-state blob of 0.2-1.8 MB,
// and the timed phase never reads one.
func (w *cached) setUp(b *bench, rep int) error {
	dirs := make([]string, cachedNodes)
	for i := range dirs {
		dirs[i] = filepath.Join(b.dir, fmt.Sprintf("cached-%d-node%d", rep, i))
	}
	if err := b.startNodes(dirs, -1); err != nil {
		return err
	}
	w.keys = cachedKeys(rep)
	w.want = make([][sha256.Size]byte, len(w.keys))
	w.ids = make([]string, len(w.keys))
	owners := make([]*node, len(w.keys))
	for i, spec := range w.keys {
		key, err := spec.Key()
		if err != nil {
			return err
		}
		owner, _ := b.nodes[0].cl.Owner(key)
		for _, n := range b.nodes {
			if n.name == owner {
				owners[i] = n
			}
		}
		w.ids[i] = key
	}

	var wg sync.WaitGroup
	errs := make([]error, len(w.keys))
	next := make(chan int)
	for range cachedSetupWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = w.compute(owners[i], i)
			}
		}()
	}
	for i := range w.keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range w.keys {
		if err := awaitStored(owners[i].st, w.ids[i]); err != nil {
			return err
		}
	}
	// The jobs finished in no fixed order, and so filled the result caches.
	// One pass over every key in key order leaves each owner's cache
	// holding its last 256 keys of the pass, whatever the order was. The
	// pass submits normalized specs, which skip the workload-name lookup.
	for i, spec := range w.keys {
		if _, status, err := owners[i].svc.Submit(spec.Normalize()); err != nil {
			return err
		} else if status != api.SubmitCached {
			return fmt.Errorf("set-up job %s was not cached on its second submission: %s", spec.Label(), status)
		}
	}
	w.draws = cachedDraws(w.seed, b.n, len(w.keys))
	return nil
}

// compute runs key i on its owner and records the result's hash.
func (w *cached) compute(owner *node, i int) error {
	j, _, err := owner.svc.Submit(w.keys[i])
	if err != nil {
		return err
	}
	<-j.Done()
	if j.State() != service.JobDone {
		return fmt.Errorf("set-up job %s: %s", w.keys[i].Label(), j.State())
	}
	if j.ID != w.ids[i] {
		return fmt.Errorf("set-up job %s: id %s, want %s", w.keys[i].Label(), j.ID, w.ids[i])
	}
	w.want[i] = sha256.Sum256(servedView(j.Snapshot()))
	return nil
}

func (w *cached) run(b *bench) error {
	w.got = make([][sha256.Size]byte, len(w.draws))
	w.gotOK = make([]bool, len(w.draws))
	for i, k := range w.draws {
		base := b.nodes[i%len(b.nodes)].name
		b.request(i, func() (int, int) {
			sr, err := b.c.submit(base, w.keys[k])
			if err != nil {
				fmt.Fprintln(b.stderr, "xbcbench: cached submit:", err)
				return 1, 1
			}
			j, err := b.c.result(base, sr.ID, sr.Status)
			if err != nil {
				fmt.Fprintln(b.stderr, "xbcbench: cached result:", err)
				return 1, 1
			}
			b.noteSubmitted(sr.Status, j)
			w.got[i], w.gotOK[i] = sha256.Sum256(servedView(j)), true
			return 1, 0
		})
	}
	return nil
}

// verify compares every served result with the one set-up recorded for
// its key, and a seeded subset of the recorded ones with direct runs.
func (w *cached) verify(b *bench, g *gate) error {
	for i, k := range w.draws {
		if !w.gotOK[i] {
			continue // already counted as failed
		}
		g.check(fmt.Sprintf("request %d (%s)", i, w.keys[k].Label()), w.want[k][:], w.got[i][:])
	}
	for _, k := range subset(w.seed, len(w.keys), 4) {
		ref, err := reference(w.keys[k], jobspec.FidelityFull)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(ref)
		g.check("set-up record of "+w.keys[k].Label(), sum[:], w.want[k][:])
	}
	return nil
}

func (w *cached) inputs(b *bench) layerInputs {
	var dirs []string
	for _, n := range b.nodes {
		dirs = append(dirs, n.dir)
	}
	var raw []jobspec.Spec
	for _, k := range w.draws {
		raw = append(raw, w.keys[k])
	}
	// No job runs in the timed phase; the layers are re-timed on the keys'
	// own streams.
	var execs []execution
	for _, k := range subset(w.seed, len(w.keys), 30) {
		execs = append(execs, execution{spec: w.keys[k].Normalize()})
	}
	return layerInputs{execs: execs, raw: raw, dirs: dirs, synthetic: true}
}

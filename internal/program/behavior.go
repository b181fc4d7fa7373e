package program

import "math/rand"

// Behavior generates the dynamic taken/not-taken outcome sequence of one
// static conditional branch. Implementations are deterministic given their
// construction parameters; all state lives in the value so a fresh Walker
// replays identical outcomes.
type Behavior interface {
	// Next returns the branch outcome for its next dynamic execution.
	Next() bool
	// Reset rewinds the behaviour to its initial state.
	Reset()
}

// loopBehavior models a loop back edge: taken trip-1 times, then not taken
// once, repeating. (Taken = loop again.)
type loopBehavior struct {
	trip int
	i    int
}

// NewLoop returns a Behavior for a loop back edge with the given trip
// count (the branch is taken trip-1 consecutive times, then falls through).
func NewLoop(trip int) Behavior {
	if trip < 1 {
		trip = 1
	}
	return &loopBehavior{trip: trip}
}

func (l *loopBehavior) Next() bool {
	l.i++
	if l.i >= l.trip {
		l.i = 0
		return false
	}
	return true
}

func (l *loopBehavior) Reset() { l.i = 0 }

// biasedBehavior models a branch as an independent Bernoulli process with a
// fixed per-branch probability of being taken.
type biasedBehavior struct {
	p    float64
	seed int64
	rng  *rand.Rand // nil until the first Next after construction or Reset
}

// NewBiased returns a Behavior that is taken with probability p, using a
// private deterministic stream derived from seed.
func NewBiased(p float64, seed int64) Behavior {
	return &biasedBehavior{p: p, seed: seed}
}

func (b *biasedBehavior) Next() bool {
	if b.rng == nil {
		b.rng = seeded(b.seed)
	}
	return b.rng.Float64() < b.p
}

func (b *biasedBehavior) Reset() { b.rng = nil }

// seeded returns a fresh source seeded with seed. Seeding costs a 4.9 KB
// source and about 600 steps, and most static branches of a large
// program are never reached by a walk, so behaviours seed on their first
// draw rather than when they are built or reset. The seed is fixed at
// build time, so the first draw after any Reset starts the same sequence.
func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// patternBehavior replays a short fixed bit pattern. Such branches are
// perfectly predictable by a history-based predictor once warmed up, like
// alternating or modulo-scheduled branches in real code.
type patternBehavior struct {
	bits []bool
	i    int
}

// NewPattern returns a Behavior cycling through the given outcome pattern.
// An empty pattern behaves as never-taken.
func NewPattern(bits []bool) Behavior {
	if len(bits) == 0 {
		bits = []bool{false}
	}
	cp := make([]bool, len(bits))
	copy(cp, bits)
	return &patternBehavior{bits: cp}
}

func (p *patternBehavior) Next() bool {
	v := p.bits[p.i]
	p.i++
	if p.i == len(p.bits) {
		p.i = 0
	}
	return v
}

func (p *patternBehavior) Reset() { p.i = 0 }

// Chooser generates the dynamic target index sequence of one static
// indirect jump or call.
type Chooser interface {
	// NextTarget returns the index (into the terminator's target list) the
	// next dynamic execution transfers to.
	NextTarget() int
	// Reset rewinds the chooser to its initial state.
	Reset()
}

// skewedChooser picks among n targets with a Zipf-like bias: target 0 is
// hottest. skew=0 is uniform, skew→1 concentrates on the first target.
type skewedChooser struct {
	cum  []float64
	seed int64
	rng  *rand.Rand // nil until the first NextTarget after construction or Reset
}

// NewSkewedChooser returns a Chooser over n targets with the given skew in
// [0,1], deterministic in seed.
func NewSkewedChooser(n int, skew float64, seed int64) Chooser {
	if n < 1 {
		n = 1
	}
	weights := make([]float64, n)
	var sum float64
	w := 1.0
	for i := range weights {
		// Geometric decay: the hottest target's probability approaches
		// skew itself (skew=0 -> uniform), matching how dominant real
		// dispatch-site targets are.
		weights[i] = w
		w *= 1 - skew
		sum += weights[i]
	}
	cum := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		cum[i] = acc
	}
	return &skewedChooser{cum: cum, seed: seed}
}

func (c *skewedChooser) NextTarget() int {
	if c.rng == nil {
		c.rng = seeded(c.seed)
	}
	x := c.rng.Float64()
	for i, v := range c.cum {
		if x < v {
			return i
		}
	}
	return len(c.cum) - 1
}

func (c *skewedChooser) Reset() { c.rng = nil }

// phasedChooser wraps another chooser and rotates which target is "first"
// every period executions, emulating phase changes in indirect behaviour
// (e.g. a bytecode interpreter moving between opcode clusters).
type phasedChooser struct {
	inner  Chooser
	n      int
	period int
	count  int
	shift  int
}

// NewPhasedChooser makes target selection rotate by one position every
// period invocations of NextTarget.
func NewPhasedChooser(inner Chooser, n, period int) Chooser {
	if period < 1 {
		period = 1
	}
	if n < 1 {
		n = 1
	}
	return &phasedChooser{inner: inner, n: n, period: period}
}

func (p *phasedChooser) NextTarget() int {
	t := (p.inner.NextTarget() + p.shift) % p.n
	p.count++
	if p.count == p.period {
		p.count = 0
		p.shift = (p.shift + 1) % p.n
	}
	return t
}

func (p *phasedChooser) Reset() {
	p.inner.Reset()
	p.count = 0
	p.shift = 0
}

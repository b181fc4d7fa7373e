package jobspec

import (
	"xbc/internal/corpus"
	"xbc/internal/keyhash"
	"xbc/internal/snapshot"
)

// The cache keys. Each is a projection of the normalized, validated spec
// through keyhash.Content, the one content hash, and each drops exactly
// the fields its cached value does not depend on. keys_test.go walks
// every leaf of a Spec and proves each projection sound: a mutation that
// changes a value changes its key, and a field a projection drops leaves
// its value bit-identical.

// Key is the job identity, under which the result cache, the r: store
// namespace and the cluster ring hold a job. It drops Workload: the
// resolved program is the trace identity, so a named workload and its
// inline copy are one job.
func (s Spec) Key() (string, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return "", err
	}
	n.Workload = ""
	return keyhash.Content(n)
}

// SnapshotKey names the warm state a full run restores (the s: store
// namespace). It drops Workload, Fidelity and Core, which do not shape
// simulator state, and Uops, because runs of one program share a prefix;
// it adds the warm-up point and snapshot.Version, so a different capture
// point or format misses instead of misrestoring.
func (s Spec) SnapshotKey() (string, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return "", err
	}
	warmup := SnapshotWarmupUops(n.Uops)
	n.Workload, n.Uops, n.Fidelity, n.Core = "", 0, "", nil
	return keyhash.Content(struct {
		Spec    Spec   `json:"spec"`
		Warmup  uint64 `json:"warmup"`
		Version uint32 `json:"version"`
	}{n, warmup, snapshot.Version})
}

// StreamKey names the generated trace: the resolved Program and Uops, the
// only fields that make the trace. It drops the rest, which only consume
// it. The corpus keeps one stream per Program and cuts each length from
// it, so its c: store namespace is keyed by the program hash alone.
func (s Spec) StreamKey() (corpus.Key, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return corpus.Key{}, err
	}
	return corpus.KeyFor(*n.Program, n.Uops)
}

// analysisKey names one memoized sampling.Analyze result.
type analysisKey struct {
	stream   corpus.Key
	interval int
	clusters int
}

// analysisKey is the stream key plus the rung's interval and cluster
// counts, the only sampling parameters the analysis reads. It drops the
// frontend model, which the analysis never sees.
func (s Spec) analysisKey() (analysisKey, error) {
	stream, err := s.StreamKey()
	cfg := SamplingConfig(s.Normalize().Fidelity)
	return analysisKey{stream: stream, interval: cfg.IntervalUops, clusters: cfg.MaxClusters}, err
}

package service

import (
	"sync"
	"time"

	"xbc/internal/service/api"
	"xbc/internal/service/jobspec"
)

// JobState is the lifecycle of one job.
type JobState int

const (
	// JobQueued: accepted, waiting for a shard worker.
	JobQueued JobState = iota
	// JobRunning: a worker is executing it.
	JobRunning
	// JobDone: completed with metrics.
	JobDone
	// JobFailed: the execution errored, panicked, or timed out.
	JobFailed
	// JobAborted: rejected from the queue by a drain before it started.
	JobAborted
)

// jobStateNames maps each JobState to its wire name.
var jobStateNames = [...]string{
	JobQueued:  "queued",
	JobRunning: "running",
	JobDone:    "done",
	JobFailed:  "failed",
	JobAborted: "aborted",
}

// String names the state as it appears on the wire.
func (s JobState) String() string {
	if s < 0 || int(s) >= len(jobStateNames) {
		return "unknown"
	}
	return jobStateNames[s]
}

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	switch s {
	case JobDone, JobFailed, JobAborted:
		return true
	case JobQueued, JobRunning:
		return false
	default:
		return false
	}
}

// Job is one accepted simulation job. The ID is the content key of the
// normalized spec, so identical submissions share one Job.
type Job struct {
	ID   string
	Spec jobspec.Spec // normalized

	mu     sync.Mutex
	state  JobState
	err    string
	res    *jobspec.Result
	events []api.Event
	notify chan struct{} // closed and replaced on every event
	done   chan struct{} // closed once terminal

	submitted, started, finished time.Time
}

func newJob(id string, spec jobspec.Spec, now time.Time) *Job {
	j := &Job{
		ID:        id,
		Spec:      spec,
		notify:    make(chan struct{}),
		done:      make(chan struct{}),
		submitted: now,
	}
	j.appendEventLocked(JobQueued, now, "")
	return j
}

// transition moves the job to state, stamps the clock, and publishes an
// event. Transitions out of a terminal state are ignored (a drain racing a
// finishing worker must not resurrect a done job).
func (j *Job) transition(state JobState, now time.Time, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = state
	switch state {
	case JobRunning:
		j.started = now
	case JobDone, JobFailed, JobAborted:
		j.finished = now
	case JobQueued:
		// The initial state is set by newJob; nothing to stamp.
	}
	j.appendEventLocked(state, now, msg)
	if state.terminal() {
		close(j.done)
	}
}

// complete records a successful result and transitions to done.
func (j *Job) complete(res jobspec.Result, now time.Time) {
	j.mu.Lock()
	j.res = &res
	j.mu.Unlock()
	j.transition(JobDone, now, "")
}

// fail records a failure and transitions to failed.
func (j *Job) fail(errMsg string, now time.Time) {
	j.mu.Lock()
	j.err = errMsg
	j.mu.Unlock()
	j.transition(JobFailed, now, errMsg)
}

// appendEventLocked publishes one event; caller holds j.mu.
func (j *Job) appendEventLocked(state JobState, now time.Time, msg string) {
	j.events = append(j.events, api.Event{
		Seq:   len(j.events),
		State: state.String(),
		AtMS:  unixMS(now),
		Msg:   msg,
	})
	close(j.notify)
	j.notify = make(chan struct{})
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// EventsSince returns the events at index >= from, the channel to wait on
// for more, and whether the job is terminal (no more events will come).
func (j *Job) EventsSince(from int) ([]api.Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []api.Event
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.notify, j.state.terminal()
}

// Snapshot renders the job as its wire form.
func (j *Job) Snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := api.Job{
		ID:            j.ID,
		State:         j.state.String(),
		Spec:          j.Spec,
		Error:         j.err,
		SubmittedAtMS: unixMS(j.submitted),
		StartedAtMS:   unixMS(j.started),
		FinishedAtMS:  unixMS(j.finished),
	}
	if j.res != nil {
		m := j.res.Metrics
		out.Metrics = &m
		if j.res.Estimate != nil {
			e := *j.res.Estimate
			out.Estimate = &e
		}
		out.Fidelity = j.res.EffectiveFidelity()
		out.ErrorBound = j.res.ErrorBound
		out.SampledUops = j.res.SampledUops
		out.SnapshotHit = j.res.SnapshotHit
	}
	return out
}

// result returns the completed job's result for persistence; false when
// the job is not done.
func (j *Job) result() (jobspec.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone || j.res == nil {
		return jobspec.Result{}, false
	}
	return *j.res, true
}

// resultFidelity reports the fidelity of a completed job's result, for
// the per-fidelity outcome counters; "" when the job is not done.
func (j *Job) resultFidelity() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone || j.res == nil {
		return ""
	}
	return j.res.EffectiveFidelity()
}

// latency returns the started->finished wall time, or false when the job
// never ran or the clock is unset.
func (j *Job) latency() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0, false
	}
	return j.finished.Sub(j.started), true
}

// unixMS converts a clock reading to unix milliseconds, keeping the zero
// time at 0 so unset stages stay recognizable on the wire.
func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

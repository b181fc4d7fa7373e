package service

import (
	"errors"
	"testing"
)

func testJob(id string) *Job {
	return &Job{ID: id, notify: make(chan struct{}), done: make(chan struct{})}
}

func TestQueueRoutingIsStable(t *testing.T) {
	q := newQueue(4, 8)
	key := "abcdef0123456789"
	want := q.shardFor(key)
	for i := 0; i < 10; i++ {
		if got := q.shardFor(key); got != want {
			t.Fatalf("shardFor changed: %d then %d", want, got)
		}
	}
	if want < 0 || want >= 4 {
		t.Fatalf("shard %d out of range", want)
	}
}

func TestQueueFull(t *testing.T) {
	q := newQueue(1, 2)
	if err := q.push(testJob("a")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(testJob("b")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(testJob("c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if q.depth() != 2 {
		t.Fatalf("depth = %d, want 2", q.depth())
	}
}

func TestQueueCloseDrainsAndRejects(t *testing.T) {
	q := newQueue(2, 4)
	for _, id := range []string{"a", "b", "c"} {
		if err := q.push(testJob(id)); err != nil {
			t.Fatal(err)
		}
	}
	drained := q.close()
	if len(drained) != 3 {
		t.Fatalf("drained %d jobs, want 3", len(drained))
	}
	if q.depth() != 0 {
		t.Fatalf("depth after close = %d", q.depth())
	}
	if err := q.push(testJob("d")); !errors.Is(err, errQueueClosed) {
		t.Fatalf("push after close: %v, want errQueueClosed", err)
	}
	if again := q.close(); again != nil {
		t.Fatalf("second close drained %d jobs", len(again))
	}
}

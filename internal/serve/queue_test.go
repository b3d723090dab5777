package serve

import (
	"errors"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
)

// fastScenario is a few milliseconds of simulation.
func fastScenario(seed uint64) wrtring.Scenario {
	return wrtring.Scenario{
		N: 6, Seed: seed, Duration: 2_000,
		Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
			Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}},
	}
}

// slowScenario takes a few hundred milliseconds — long enough that a short
// drain deadline lands mid-run.
func slowScenario(seed uint64) wrtring.Scenario {
	s := fastScenario(seed)
	s.Duration = 200_000
	return s
}

func waitState(t *testing.T, q *Queue, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := q.Status(id); ok && st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, ok := q.Status(id)
	t.Fatalf("job %s never reached %v (now %+v, known=%v)", id, want, st, ok)
	return JobStatus{}
}

func TestQueueRunsAndCaches(t *testing.T) {
	cache := NewCache(16, 0)
	q := NewQueue(cache, 8, 2)
	defer q.Drain(time.Minute)

	id, outcome, err := q.Submit(fastScenario(1))
	if err != nil || outcome != SubmitQueued {
		t.Fatalf("submit: %v %v", outcome, err)
	}
	waitState(t, q, id, StateDone)
	data, ok := q.Result(id)
	if !ok || len(data) == 0 {
		t.Fatal("no result bytes for done job")
	}

	// Resubmitting the identical spec is a cache hit, not a new job.
	id2, outcome2, err := q.Submit(fastScenario(1))
	if err != nil || outcome2 != SubmitCached || id2 != id {
		t.Fatalf("resubmit: id=%v outcome=%v err=%v", id2, outcome2, err)
	}
	qs := q.Stats()
	if qs.Admitted != 1 || qs.Completed != 1 {
		t.Fatalf("stats %+v", qs)
	}
	if cs := cache.Stats(); cs.Hits != 1 {
		t.Fatalf("cache stats %+v", cs)
	}
	if ls := q.LatencySnapshot(); len(ls) != 1 || ls[0].Label != "wrt-ring" || ls[0].N != 1 {
		t.Fatalf("latency snapshot %+v", ls)
	}
}

func TestQueueCoalescesDuplicates(t *testing.T) {
	cache := NewCache(16, 0)
	q := NewQueue(cache, 8, 1)
	defer q.Drain(time.Minute)

	// One slow job occupies the single worker so the duplicates are
	// guaranteed to find their spec in flight.
	blocker, _, err := q.Submit(slowScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := q.Submit(fastScenario(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id, outcome, err := q.Submit(fastScenario(2))
		if err != nil || outcome != SubmitCoalesced || id != first {
			t.Fatalf("duplicate %d: id=%v outcome=%v err=%v", i, id, outcome, err)
		}
	}
	waitState(t, q, blocker, StateDone)
	st := waitState(t, q, first, StateDone)
	if st.Coalesced != 3 {
		t.Fatalf("coalesced %d, want 3", st.Coalesced)
	}
	qs := q.Stats()
	if qs.Admitted != 2 || qs.Coalesced != 3 {
		t.Fatalf("stats %+v", qs)
	}
}

func TestQueueAdmissionControl(t *testing.T) {
	cache := NewCache(16, 0)
	q := NewQueue(cache, 2, 1)
	defer q.Drain(time.Minute)

	// Occupy the single worker, then fill both queue slots.
	id, _, err := q.Submit(slowScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id, StateRunning)
	for seed := uint64(2); seed <= 3; seed++ {
		if _, _, err := q.Submit(slowScenario(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// Worker busy + queue at capacity: the next distinct spec must be
	// rejected, not blocked.
	if _, _, err := q.Submit(slowScenario(4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v", err)
	}
	if qs := q.Stats(); qs.Rejected != 1 || qs.Admitted != 3 {
		t.Fatalf("stats %+v", qs)
	}
}

func TestQueueFailedJob(t *testing.T) {
	cache := NewCache(16, 0)
	q := NewQueue(cache, 8, 1)
	defer q.Drain(time.Minute)

	bad := wrtring.Scenario{N: 4, Sources: []wrtring.Source{{Station: 99}}} // out of range
	id, outcome, err := q.Submit(bad)
	if err != nil || outcome != SubmitQueued {
		t.Fatalf("submit: %v %v", outcome, err)
	}
	st := waitState(t, q, id, StateFailed)
	if st.Err == "" {
		t.Fatal("failed job has no error")
	}
	if _, ok := q.Result(id); ok {
		t.Fatal("failed job has cached bytes")
	}
	if qs := q.Stats(); qs.Failed != 1 || qs.Completed != 0 {
		t.Fatalf("stats %+v", qs)
	}
}

func TestQueueDrainAccounting(t *testing.T) {
	cache := NewCache(16, 0)
	q := NewQueue(cache, 16, 1)
	for seed := uint64(1); seed <= 5; seed++ {
		if _, _, err := q.Submit(slowScenario(seed)); err != nil {
			t.Fatal(err)
		}
	}
	report := q.Drain(100 * time.Millisecond)
	if _, _, err := q.Submit(fastScenario(99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v", err)
	}
	qs := q.Stats()
	if qs.Admitted != qs.Completed+qs.Failed+qs.Dropped {
		t.Fatalf("accounting imbalance: %+v", qs)
	}
	if qs.Dropped == 0 || !report.DeadlineExceeded {
		t.Fatalf("short deadline dropped nothing: report=%+v stats=%+v", report, qs)
	}
	if report.Completed+report.Failed+report.Dropped != qs.Admitted {
		t.Fatalf("report does not cover admitted work: %+v vs %+v", report, qs)
	}
	if qs.Depth != 0 || qs.Running != 0 {
		t.Fatalf("drained queue still has work: %+v", qs)
	}
	// Dropped jobs are queryable and explained.
	dropped := 0
	for seed := uint64(1); seed <= 5; seed++ {
		id, err := Key(slowScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		st, ok := q.Status(id)
		if !ok {
			t.Fatalf("seed %d unknown after drain", seed)
		}
		if st.State == StateDropped {
			dropped++
			if st.Err == "" {
				t.Fatal("dropped job has no explanation")
			}
		}
	}
	if int64(dropped) != qs.Dropped {
		t.Fatalf("status shows %d dropped, stats say %d", dropped, qs.Dropped)
	}
}

// TestQueueDrainCompletesFastJobs: with a generous deadline a drain finishes
// everything and drops nothing.
func TestQueueDrainCompletesFastJobs(t *testing.T) {
	cache := NewCache(16, 0)
	q := NewQueue(cache, 16, 2)
	for seed := uint64(1); seed <= 4; seed++ {
		if _, _, err := q.Submit(fastScenario(seed)); err != nil {
			t.Fatal(err)
		}
	}
	report := q.Drain(time.Minute)
	if report.DeadlineExceeded || report.Dropped != 0 || report.Completed != 4 {
		t.Fatalf("report %+v", report)
	}
	qs := q.Stats()
	if qs.Admitted != 4 || qs.Completed != 4 || qs.Dropped != 0 {
		t.Fatalf("stats %+v", qs)
	}
}

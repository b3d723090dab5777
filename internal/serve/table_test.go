package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/sim"
)

// tableRun drives one seeded interleaving of admit, coalesce, start,
// requeue, finish (done, failed or dropped), re-admit and drain over a few
// IDs on a table that keeps 4 finished records, checking the table's
// invariants after every step.
type tableRun struct {
	t     *testing.T
	rng   *sim.RNG
	table *Table
	ids   []string
	// every record the table ever admitted, in admission order
	jobs []*Job
	// counts the model predicts for the table's counters
	want QueueStats
	// readers wait on done signals while the steps mutate the table
	readers sync.WaitGroup
}

func (r *tableRun) pick() string { return r.ids[r.rng.Intn(len(r.ids))] }

// live returns id's record while it is in flight.
func (r *tableRun) live(id string) *Job {
	r.table.mu.Lock()
	defer r.table.mu.Unlock()
	if j := r.table.jobs[id]; j != nil && !j.state.Terminal() {
		return j
	}
	return nil
}

func (r *tableRun) submit() {
	id := r.pick()
	refuse := r.rng.Intn(5) == 0
	r.table.mu.Lock()
	prev := r.table.jobs[id]
	var prevState State
	if prev != nil {
		prevState = prev.state
	}
	draining := r.table.draining
	r.table.mu.Unlock()
	wasDone := prev != nil && prevState == StateDone
	outcome, j, err := r.table.Submit(id, fastScenario(1), func(done bool, _ int) (string, string, error) {
		if done != wasDone {
			r.t.Fatalf("gate told done=%v for %s, previous record %v", done, id, prevState)
		}
		switch {
		case refuse:
			return "", "", ErrQueueFull
		case done:
			return SubmitCached, "", nil
		}
		return SubmitQueued, "w", nil
	})
	switch {
	case draining:
		if !errors.Is(err, ErrDraining) {
			r.t.Fatalf("submit while draining: %v", err)
		}
		r.want.Rejected++
	case prev != nil && !prevState.Terminal():
		if outcome != SubmitCoalesced || j != nil || err != nil {
			r.t.Fatalf("duplicate of in-flight %s: %q %v %v", id, outcome, j, err)
		}
		r.want.Coalesced++
	case refuse:
		if !errors.Is(err, ErrQueueFull) || j != nil {
			r.t.Fatalf("refused %s: %q %v %v", id, outcome, j, err)
		}
		r.want.Rejected++
	case wasDone:
		if outcome != SubmitCached || j != nil || err != nil {
			r.t.Fatalf("done %s: %q %v %v", id, outcome, j, err)
		}
	default:
		if outcome != SubmitQueued || j == nil || err != nil {
			r.t.Fatalf("admit %s: %q %v %v", id, outcome, j, err)
		}
		// A re-admitted ID gets a fresh record.
		for _, old := range r.jobs {
			if old == j {
				r.t.Fatalf("re-admitted %s reuses a record", id)
			}
		}
		r.table.mu.Lock()
		current := r.table.jobs[id]
		fresh := j.state == StateQueued && j.worker == "w" && j.coalesced == 0
		r.table.mu.Unlock()
		if current != j || !fresh {
			r.t.Fatalf("admitted %s is not the table's fresh queued record", id)
		}
		r.jobs = append(r.jobs, j)
		r.want.Admitted++
		r.want.Depth++
		// A reader woken by the done signal must find the record terminal.
		r.readers.Add(1)
		go func() {
			defer r.readers.Done()
			<-j.done
			r.table.mu.Lock()
			terminal := j.state.Terminal()
			r.table.mu.Unlock()
			if !terminal {
				r.t.Errorf("%s: done closed before the record turned terminal", id)
			}
		}()
	}
}

func (r *tableRun) step() {
	switch op := r.rng.Intn(10); {
	case op < 4:
		r.submit()
	case op < 6:
		if j := r.live(r.pick()); j != nil {
			if _, ok := r.table.Start(j); ok {
				r.want.Depth--
				r.want.Running++
			}
		}
	case op < 7:
		if j := r.live(r.pick()); j != nil && j.state == StateRunning {
			r.table.Requeue(j, "w2")
			r.want.Running--
			r.want.Depth++
		}
	default:
		var j *Job
		if len(r.jobs) > 0 && r.rng.Intn(4) == 0 {
			j = r.jobs[r.rng.Intn(len(r.jobs))] // may be terminal: must be a no-op
		} else {
			j = r.live(r.pick())
		}
		if j == nil {
			return
		}
		state := []State{StateDone, StateFailed, StateDropped}[r.rng.Intn(3)]
		r.table.mu.Lock()
		before := j.state
		r.table.mu.Unlock()
		r.table.Finish(j, Outcome{State: state, Label: "l"})
		switch before {
		case StateQueued:
			r.want.Depth--
		case StateRunning:
			r.want.Running--
		default:
			return
		}
		switch state {
		case StateDone:
			r.want.Completed++
		case StateFailed:
			r.want.Failed++
		case StateDropped:
			r.want.Dropped++
		}
	}
}

// check asserts the table invariants.
func (r *tableRun) check(when string) {
	r.t.Helper()
	tb := r.table
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, j := range r.jobs {
		closed := false
		select {
		case <-j.done:
			closed = true
		default:
		}
		if closed != j.state.Terminal() {
			r.t.Fatalf("%s: %s is %v with done closed=%v", when, j.ID, j.state, closed)
		}
	}
	if len(tb.finished) > tb.finishedCap {
		r.t.Fatalf("%s: FIFO holds %d > %d", when, len(tb.finished), tb.finishedCap)
	}
	seen := map[string]bool{}
	for _, id := range tb.finished {
		if seen[id] {
			r.t.Fatalf("%s: FIFO holds %s twice: %v", when, id, tb.finished)
		}
		seen[id] = true
		if j := tb.jobs[id]; j == nil || !j.state.Terminal() {
			r.t.Fatalf("%s: FIFO entry %s has no finished record", when, id)
		}
	}
	for id, j := range tb.jobs {
		if j.state.Terminal() != seen[id] {
			r.t.Fatalf("%s: record %s (%v) and FIFO disagree", when, id, j.state)
		}
	}
	got := QueueStats{
		Depth: tb.queued, Running: tb.running, Draining: tb.draining,
		Admitted: tb.admitted, Completed: tb.completed, Failed: tb.failed,
		Dropped: tb.dropped, Rejected: tb.rejected, Coalesced: tb.coalesced,
	}
	want := r.want
	want.Draining = tb.draining
	if got != want {
		r.t.Fatalf("%s: counters %+v, model %+v", when, got, want)
	}
	if got.Admitted != got.Completed+got.Failed+got.Dropped+int64(got.Depth+got.Running) {
		r.t.Fatalf("%s: conservation broken in flight: %+v", when, got)
	}
}

// TestTableInterleavings runs seeded interleavings against the table and
// checks, after every step, that each done signal closes exactly when its
// record turns terminal, that the finished FIFO holds no ID twice and at
// most its cap, that a re-admitted ID gets a fresh record, and that the
// counters follow the model. After the drain, admitted = completed +
// failed + dropped.
func TestTableInterleavings(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := &tableRun{
			t: t, rng: sim.NewRNG(seed), table: NewTable(ErrDraining),
			ids: []string{"a", "b", "c", "d", "e", "f"},
		}
		r.table.finishedCap = 4
		steps := 20 + r.rng.Intn(60)
		for i := 0; i < steps; i++ {
			r.step()
			r.check(fmt.Sprintf("seed %d step %d", seed, i))
		}
		stopped := 0
		report := r.table.Drain(0, func() { stopped++ }, "dropped: drained")
		r.want.Dropped += int64(r.want.Depth + r.want.Running)
		r.want.Depth, r.want.Running = 0, 0
		r.check(fmt.Sprintf("seed %d drained", seed))
		// Admission stays closed, and a second drain stops nothing again.
		r.submit()
		r.table.Drain(0, func() { stopped++ }, "dropped: drained")
		r.check(fmt.Sprintf("seed %d after drain", seed))
		st := r.table.Stats()
		if st.Admitted != st.Completed+st.Failed+st.Dropped || stopped != 1 {
			t.Fatalf("seed %d: drained table %+v, report %+v, stop ran %d times", seed, st, report, stopped)
		}
		r.readers.Wait()
	}
}

// TestTableAwaitReadsItsRecord: a held read answers from the record it
// began on, even after a re-admission replaced that record under its ID.
func TestTableAwaitReadsItsRecord(t *testing.T) {
	tb := NewTable(ErrDraining)
	admit := func(bool, int) (string, string, error) { return SubmitQueued, "", nil }
	_, first, _ := tb.Submit("x", wrtring.Scenario{}, admit)
	answered := make(chan JobStatus, 1)
	go func() {
		st, _ := tb.Await(context.Background(), "x")
		answered <- st
	}()
	time.Sleep(10 * time.Millisecond)
	tb.Finish(first, Outcome{State: StateFailed, Err: "first"})
	if st := <-answered; st.State != StateFailed || st.Err != "first" {
		t.Fatalf("await answered %+v, want the first record failed", st)
	}
	_, second, _ := tb.Submit("x", wrtring.Scenario{}, admit)
	if second == first {
		t.Fatal("re-admission reused the failed record")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st, ok := tb.Await(ctx, "x"); !ok || st.State != StateQueued {
		t.Fatalf("await on the re-admitted job answered %+v %v, want it queued", st, ok)
	}
}

package main

import (
	"context"
	"sync"
	"time"
)

// opResult is what one operation (a sweep, a batch, a single run or
// long-sim's pair of runs) reports back to the load generator.
type opResult struct {
	runs    int    // scenario results delivered
	submits int    // submit requests the op needed, retries not counted
	fail    string // non-empty: the op failed (and delivered nothing)
	cached  bool   // single runs: the submission was answered "cached"
	// cacheHitLines counts batch result lines flagged as cache hits.
	cacheHitLines int
	// firstLine and lastLine time a batch's result stream.
	firstLine, lastLine time.Time
	lines               int
	// batchID and shardIDs name a batch op and its shards' run IDs.
	batchID  string
	shardIDs []string
	// checks materialises the op's results for the fresh-spec oracle; it is
	// only called for the first few ops of a round, outside the timed path.
	checks func() ([]check, error)
}

// loop describes how a workload loads the system: clients callers in a
// closed loop, or, with rate > 0, clients senders of an open-loop arrival
// schedule at rate operations per second in total.
type loop struct {
	clients int
	rate    float64
}

// tally accumulates one workload's operations across rounds.
type tally struct {
	verifyOps int
	links     bool // keep the run ID -> batch ID map (traced runs)

	mu         sync.Mutex
	lat, lag   []float64 // ms per op
	firstLine  []float64 // ms from the call to a batch's first result line
	lineGap    []float64 // ms between a batch's result lines (mean per batch)
	ops, fails int
	runs       int
	submits    int
	cached     int
	hitLines   int
	errs       []string
	pending    []func() ([]check, error) // the current round's first verifyOps ops
	batchIDs   []string
	batchOf    map[string]string
}

const maxErrs = 5

func (t *tally) add(sent, done time.Time, latency, lag time.Duration, r opResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	if r.batchID != "" {
		t.batchIDs = append(t.batchIDs, r.batchID)
		if t.links {
			if t.batchOf == nil {
				t.batchOf = make(map[string]string)
			}
			for _, id := range r.shardIDs {
				t.batchOf[id] = r.batchID
			}
		}
	}
	if r.fail != "" {
		t.fails++
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, r.fail)
		}
		return
	}
	t.lat = append(t.lat, ms(latency))
	t.lag = append(t.lag, ms(lag))
	t.runs += r.runs
	t.submits += r.submits
	if r.cached {
		t.cached++
	}
	t.hitLines += r.cacheHitLines
	if r.lines > 0 {
		t.firstLine = append(t.firstLine, ms(r.firstLine.Sub(sent)))
		if r.lines > 1 {
			t.lineGap = append(t.lineGap, ms(r.lastLine.Sub(r.firstLine))/float64(r.lines-1))
		}
	}
	if r.checks != nil && len(t.pending) < t.verifyOps {
		t.pending = append(t.pending, r.checks)
	}
}

// takePending hands over the round's retained checks.
func (t *tally) takePending() []func() ([]check, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pending
	t.pending = nil
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runRound drives one round until deadline and returns its measured span:
// from the start until the last operation completed. No operation starts at
// or after the deadline; those in flight finish and count.
//
// A closed-loop client sends its next operation when the previous one
// returns; its lag is the gap between the two (the generator's own
// overhead), and its latency runs from the send. An open-loop sender owns
// every clients-th slot of the arrival schedule; each operation's latency
// and lag run from the slot's due time, so a sender that stalls charges the
// wait to every request it then sends late.
func runRound(ctx context.Context, l loop, deadline time.Time, next func(client int) input,
	do func(context.Context, input) opResult, t *tally) time.Duration {
	start := time.Now()
	ends := make([]time.Time, l.clients)
	var wg sync.WaitGroup
	for k := 0; k < l.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			prev := start
			for i := 0; ; i++ {
				due := prev
				if l.rate > 0 {
					due = start.Add(time.Duration(float64(i*l.clients+k) * float64(time.Second) / l.rate))
					if !due.Before(deadline) {
						return
					}
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				in := next(k)
				sent := time.Now()
				r := do(ctx, in)
				done := time.Now()
				from := sent
				if l.rate > 0 {
					from = due
				}
				t.add(sent, done, done.Sub(from), sent.Sub(due), r)
				prev = done
				ends[k] = done
			}
		}(k)
	}
	wg.Wait()
	end := start
	for _, e := range ends {
		if e.After(end) {
			end = e
		}
	}
	return end.Sub(start)
}

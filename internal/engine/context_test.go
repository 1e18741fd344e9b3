package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// distinctJobs builds n jobs that cannot coalesce (distinct PQ capacities),
// so a cancellation test gets n real simulations to interrupt.
func distinctJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Traces:    []string{"lbm-1274"},
			L1:        []string{"IP-stride"},
			Overrides: Overrides{PQCapacity: 8 + i},
		}
	}
	return jobs
}

func TestRunContextPreCanceled(t *testing.T) {
	e := New(Options{Scale: tiny})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, tinyJob("IP-stride")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := e.Counters(); c.Simulated != 0 {
		t.Errorf("simulated = %d, want 0 — a canceled context must not start work", c.Simulated)
	}
}

// TestRunAllContextCancelStopsAtJobBoundary cancels a single-shard sweep
// from its first progress callback and asserts the shard stops there: the
// error is context.Canceled, far fewer jobs completed than were
// submitted, and the skipped slots are zero results.
func TestRunAllContextCancelStopsAtJobBoundary(t *testing.T) {
	e := New(Options{Scale: tiny, Workers: 1})
	jobs := distinctJobs(12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var completions int
	results, err := e.RunAllContext(ctx, jobs, func(p Progress) {
		completions++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if completions >= len(jobs) {
		t.Fatalf("all %d jobs completed despite cancellation", len(jobs))
	}
	done := 0
	for _, r := range results {
		if r.MeanIPC() > 0 {
			done++
		}
	}
	if done != completions {
		t.Errorf("%d non-zero results, %d progress completions", done, completions)
	}
	if c := e.Counters(); int(c.Simulated) >= len(jobs) {
		t.Errorf("simulated = %d, want < %d", c.Simulated, len(jobs))
	}
}

// TestRunAllContextPartialResultsResume: a cancelled sweep's completed
// jobs stay memoized, so resubmitting finishes the remainder instead of
// recomputing from scratch.
func TestRunAllContextPartialResultsResume(t *testing.T) {
	e := New(Options{Scale: tiny, Workers: 1})
	jobs := distinctJobs(6)
	ctx, cancel := context.WithCancel(context.Background())
	e.RunAllContext(ctx, jobs, func(p Progress) { cancel() }) //nolint:errcheck

	before := e.Counters()
	if before.Simulated == 0 {
		t.Fatal("cancellation raced ahead of the first completion")
	}
	results, err := e.RunAllContext(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.MeanIPC() <= 0 {
			t.Errorf("job %d missing after resume", i)
		}
	}
	after := e.Counters()
	if after.MemoHits < before.Simulated {
		t.Errorf("memo hits = %d, want >= %d — completed work must be reused",
			after.MemoHits, before.Simulated)
	}
	if got := after.Simulated; got != uint64(len(jobs)) {
		t.Errorf("total simulated = %d, want %d (each job exactly once)", got, len(jobs))
	}
}

// TestRunAllContextDuplicatesRunOnce: a sweep that repeats a job simulates
// it once, copies the result to every repeat, and still reports progress
// for every index, the copies as cached.
func TestRunAllContextDuplicatesRunOnce(t *testing.T) {
	e := New(Options{Scale: tiny, Workers: 2})
	a, b := tinyJob("IP-stride"), tinyJob("BOP")
	jobs := []Job{a, b, a, a}
	var events []Progress
	results, err := e.RunAllContext(context.Background(), jobs, func(p Progress) {
		events = append(events, p) // callbacks are serialized
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Simulated != 2 {
		t.Errorf("simulated = %d, want 2", c.Simulated)
	}
	if len(events) != len(jobs) {
		t.Fatalf("progress events = %d, want %d", len(events), len(jobs))
	}
	cached := 0
	for i, p := range events {
		if p.Done != i+1 || p.Total != len(jobs) {
			t.Errorf("event %d: Done/Total = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, len(jobs))
		}
		if p.Cached {
			cached++
		}
	}
	if cached != 2 {
		t.Errorf("%d cached events, want 2 (the copies of A)", cached)
	}
	if results[0].MeanIPC() <= 0 || !reflect.DeepEqual(results[0], results[2]) || !reflect.DeepEqual(results[0], results[3]) {
		t.Error("the three A indices do not hold one equal, non-zero result")
	}
}

// TestRunAllContextCostliestFirst: a single worker takes the 4-core job
// before the 1-core job submitted ahead of it.
func TestRunAllContextCostliestFirst(t *testing.T) {
	e := New(Options{Scale: tiny, Workers: 1})
	one := tinyJob("IP-stride")
	four := Job{Traces: []string{"lbm-1274", "lbm-1274", "lbm-1274", "lbm-1274"}, L1: []string{"IP-stride"}}
	var order []string
	if _, err := e.RunAllContext(context.Background(), []Job{one, four}, func(p Progress) {
		order = append(order, p.Address)
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != four.ContentAddress(tiny) {
		t.Errorf("completion order %v, want the 4-core job %s first", order, four.ContentAddress(tiny))
	}
}

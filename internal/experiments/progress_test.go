package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/platform"
)

type progressEvent struct {
	done, total int
}

// progressRunner builds a runner whose Progress callback records every
// delivery, instrumented to detect concurrent (non-serialized) deliveries.
func progressRunner(t *testing.T, ctx context.Context, record func(string, int, int)) *Runner {
	t.Helper()
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 44, UniverseSize: 8000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Deployment: d,
		K:          20,
		Seed:       5,
		Metrics:    obs.NewRegistry(),
		Context:    ctx,
		Progress:   record,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Config.Progress contract, first half: deliveries are serialized and done
// is monotonic within a batch, and every batch's final done == total
// delivery arrives.
func TestProgressSerializedAndMonotonic(t *testing.T) {
	var (
		mu    sync.Mutex
		depth atomic.Int32
		seq   = map[string][]progressEvent{}
	)
	r := progressRunner(t, nil, func(name string, done, total int) {
		if depth.Add(1) != 1 {
			t.Error("progress deliveries overlapped")
		}
		defer depth.Add(-1)
		if done < 1 || total < 1 || done > total {
			t.Errorf("progress out of range: %s %d/%d", name, done, total)
		}
		mu.Lock()
		seq[name] = append(seq[name], progressEvent{done, total})
		mu.Unlock()
	})
	if _, err := r.Individuals(catalog.PlatformLinkedIn, classMale()); err != nil {
		t.Fatal(err)
	}

	events := seq[catalog.PlatformLinkedIn]
	if len(events) == 0 {
		t.Fatal("fan-out delivered no progress")
	}
	// The sequence partitions into strictly increasing runs (batches), and
	// a batch may only end — the next event's done resetting — after its
	// final done == total delivery.
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1], events[i]
		if cur.done <= prev.done && prev.done != prev.total {
			t.Fatalf("done went %d -> %d before the batch finished (total %d)",
				prev.done, cur.done, prev.total)
		}
	}
	last := events[len(events)-1]
	if last.done != last.total {
		t.Fatalf("final delivery %d/%d: the closing delivery must never be dropped",
			last.done, last.total)
	}
	for name, evs := range seq {
		if name != catalog.PlatformLinkedIn && len(evs) > 0 {
			t.Fatalf("scan of %s reported progress for %s", catalog.PlatformLinkedIn, name)
		}
	}
}

// Config.Progress contract, second half: once Context is cancelled and the
// in-flight fan-out returns, no further callbacks are delivered.
func TestProgressStopsAfterCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	r := progressRunner(t, ctx, func(name string, done, total int) {
		if calls.Add(1) == 3 {
			cancel() // cancel mid-fan-out, from inside the progress path
		}
	})
	// The in-flight batch may complete (its measurements were already
	// issued) or fail with the context error; either way callbacks stop.
	_, _ = r.Individuals(catalog.PlatformLinkedIn, classMale())
	after := calls.Load()
	time.Sleep(50 * time.Millisecond)
	if got := calls.Load(); got != after {
		t.Fatalf("progress delivered after the fan-out returned: %d -> %d", after, got)
	}
	// A fresh call on the cancelled runner fails fast, silently.
	before := calls.Load()
	if _, err := r.Individuals(catalog.PlatformFacebook, classMale()); err == nil {
		t.Fatal("scan on cancelled runner succeeded")
	}
	if got := calls.Load(); got != before {
		t.Fatalf("cancelled runner still delivers progress: %d -> %d", before, got)
	}
}

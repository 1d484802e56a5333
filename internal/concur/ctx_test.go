package concur

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"equitruss/internal/faults"
)

// settleGoroutines waits for the goroutine count to return to baseline,
// failing the test with a full stack dump if it never does.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// shapes runs every scheduler shape over hits, incrementing each slot the
// body visits; ForThreads visits one slot per thread id.
var shapes = []struct {
	name string
	run  func(ctx context.Context, hits []int32) error
}{
	{"For", func(ctx context.Context, hits []int32) error {
		return For(ctx, nil, "", len(hits), 4, func(i int) { atomic.AddInt32(&hits[i], 1) })
	}},
	{"ForRange", func(ctx context.Context, hits []int32) error {
		return ForRange(ctx, nil, "", len(hits), 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
	}},
	{"ForDynamic", func(ctx context.Context, hits []int32) error {
		return ForDynamic(ctx, nil, "", len(hits), 4, 64, func(i int) { atomic.AddInt32(&hits[i], 1) })
	}},
	{"ForRangeDynamic", func(ctx context.Context, hits []int32) error {
		return ForRangeDynamic(ctx, nil, "", len(hits), 4, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
	}},
	{"ForThreads", func(ctx context.Context, hits []int32) error {
		return ForThreads(ctx, nil, "", len(hits), func(tid int) { atomic.AddInt32(&hits[tid], 1) })
	}},
}

// shapeSize is the range each shape covers; ForThreads runs one body per
// thread, so it gets a thread count.
func shapeSize(name string) int {
	if name == "ForThreads" {
		return 8
	}
	return 10_000
}

func checkOnce(t *testing.T, name string, hits []int32) {
	t.Helper()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("%s: index %d ran %d times", name, i, h)
		}
	}
}

func TestCtxSchedulersCompleteWithBackgroundContext(t *testing.T) {
	for _, ctx := range []context.Context{context.Background(), nil} {
		for _, sh := range shapes {
			hits := make([]int32, shapeSize(sh.name))
			if err := sh.run(ctx, hits); err != nil {
				t.Fatalf("%s returned %v with ctx %v", sh.name, err, ctx)
			}
			checkOnce(t, sh.name, hits)
		}
	}
}

func TestCtxSchedulersPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	if err := For(ctx, nil, "", 1<<20, 4, func(i int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("For on canceled ctx returned %v", err)
	}
	// Workers may complete at most one chunk each before observing the
	// cancellation; they must not run the whole loop.
	if n := ran.Load(); n >= 1<<20 {
		t.Fatalf("pre-canceled For ran all %d iterations", n)
	}
	if err := ForRangeDynamic(ctx, nil, "", 1<<20, 4, 64, func(lo, hi int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ForRangeDynamic on canceled ctx returned %v", err)
	}
	if err := ForThreads(ctx, nil, "", 4, func(tid int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("ForThreads on canceled ctx returned %v", err)
	}
}

func TestCtxSchedulersCancelMidRunNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var ran atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- ForDynamic(ctx, nil, "", 1<<30, 4, 64, func(i int) {
			select {
			case started <- struct{}{}:
			default:
			}
			ran.Add(1)
		})
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled scheduler did not return")
	}
	if n := ran.Load(); n >= 1<<30 {
		t.Fatalf("canceled loop ran all %d iterations", n)
	}
	settleGoroutines(t, baseline)
}

// TestNilCtxSuppressesBarrierInjection pins the contract the no-error
// callers rely on: under an armed barrier site, every scheduler shape run
// with a nil context covers its range exactly once and returns nil, while
// the same shape with context.Background() in the same process observes the
// injection.
func TestNilCtxSuppressesBarrierInjection(t *testing.T) {
	faults.Enable(7)
	defer faults.Disable()
	faults.Set("concur.barrier", faults.Plan{Action: faults.Error, Every: 1})

	for _, sh := range shapes {
		hits := make([]int32, shapeSize(sh.name))
		if err := sh.run(nil, hits); err != nil {
			t.Fatalf("%s with nil ctx under armed barrier returned %v", sh.name, err)
		}
		checkOnce(t, sh.name, hits)
		if err := sh.run(context.Background(), make([]int32, shapeSize(sh.name))); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s with background ctx under armed barrier returned %v, want injected fault", sh.name, err)
		}
	}
}

func TestChaosBarrierFaultPropagates(t *testing.T) {
	faults.Enable(5)
	defer faults.Disable()
	faults.Set("concur.barrier", faults.Plan{Action: faults.Error, Every: 1})
	err := For(context.Background(), nil, "", 100, 2, func(i int) {})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("armed barrier returned %v, want injected fault", err)
	}
	// Cancellation outranks an injected fault: canceled builds must report
	// ctx.Err(), not chaos noise.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := For(ctx, nil, "", 100, 2, func(i int) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx with armed barrier returned %v", err)
	}
}

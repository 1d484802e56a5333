package concur

import (
	"sync/atomic"
	"testing"
)

func TestForCoversRange(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 3, 7} {
		for _, n := range []int{0, 1, 2, 63, 1000} {
			hits := make([]int32, n)
			For(nil, nil, "", n, threads, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, h)
				}
			}
		}
	}
}

func TestForRangeCoversRangeDisjointly(t *testing.T) {
	for _, threads := range []int{1, 2, 5} {
		n := 997
		hits := make([]int32, n)
		ForRange(nil, nil, "", n, threads, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, h)
			}
		}
	}
}

func TestForDynamicCoversRange(t *testing.T) {
	for _, grain := range []int{0, 1, 10, 10000} {
		n := 12345
		hits := make([]int32, n)
		ForDynamic(nil, nil, "", n, 4, grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("grain=%d: index %d visited %d times", grain, i, h)
			}
		}
	}
}

func TestForThreadsRunsEachTIDOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		hits := make([]int32, threads)
		ForThreads(nil, nil, "", threads, func(tid int) { atomic.AddInt32(&hits[tid], 1) })
		for tid, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d: tid %d ran %d times", threads, tid, h)
			}
		}
	}
}

func TestMaxInt32(t *testing.T) {
	vals := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	got := MaxInt32(len(vals), 3, -1, func(i int) int32 { return vals[i] })
	if got != 9 {
		t.Fatalf("max = %d, want 9", got)
	}
	if got := MaxInt32(0, 3, -7, nil); got != -7 {
		t.Fatalf("empty max = %d, want default -7", got)
	}
}

func TestCASMinMax(t *testing.T) {
	v := int32(10)
	if !CASMinInt32(&v, 5) || v != 5 {
		t.Fatalf("CASMin failed: v=%d", v)
	}
	if CASMinInt32(&v, 7) {
		t.Fatal("CASMin lowered to a larger value")
	}
}

func TestCASMinConcurrent(t *testing.T) {
	v := int32(1 << 30)
	For(nil, nil, "", 1000, 8, func(i int) { CASMinInt32(&v, int32(i)) })
	if v != 0 {
		t.Fatalf("concurrent CASMin = %d, want 0", v)
	}
}

func TestClampThreads(t *testing.T) {
	if got := clampThreads(0, 100); got != MaxThreads() {
		t.Fatalf("clampThreads(0) = %d, want %d", got, MaxThreads())
	}
	if got := clampThreads(8, 3); got != 3 {
		t.Fatalf("clampThreads(8, 3) = %d, want 3", got)
	}
	if got := clampThreads(-5, 0); got != 1 {
		t.Fatalf("clampThreads(-5, 0) = %d, want 1", got)
	}
}

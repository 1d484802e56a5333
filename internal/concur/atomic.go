package concur

import "sync/atomic"

// CASMinInt32 atomically lowers *addr to v if v is smaller, returning true
// if the store happened. It is the "priority write" primitive used by
// hooking in Shiloach–Vishkin style connected components.
func CASMinInt32(addr *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(addr, old, v) {
			return true
		}
	}
}

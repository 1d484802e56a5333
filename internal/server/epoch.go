package server

import (
	"errors"
	"fmt"
	"net/http"

	"equitruss/internal/community"
	"equitruss/internal/obs"
)

var cEpochSwaps = obs.GetCounter("server_epoch_swaps",
	"new index epochs published to the serving path")

// epoch is one immutable generation of the serving state. Queries load the
// current epoch once with an atomic pointer read and answer entirely from
// it, so a concurrent publish never mixes two indexes inside one request.
// The epoch number versions the LRU cache key: entries cached under an old
// epoch become unreachable the instant a new one is published.
type epoch struct {
	idx *community.Index
	num uint64 // monotone generation counter, 1 for the first publish
	seq uint64 // last WAL sequence reflected in idx (0 for static serving)
	// sums fingerprints this epoch's state canonically; the crash-recovery
	// differential compares these against an independent rebuild.
	sums community.Checksums
}

// epoch returns the current serving epoch, or nil before the first Publish
// (a recovering server that has not finished its initial build).
func (s *Server) epoch() *epoch { return s.cur.Load() }

// Publish makes idx the serving index, swapped in atomically under the next
// epoch number. seq is the WAL sequence the index state includes (0 for
// static serving). Everything expensive — the hierarchy build and the
// canonical checksums — happens before the swap, so queries never pay a
// lazy-build latency spike and never observe a half-published epoch.
// Publish returns the new epoch number. It is safe to call concurrently
// with queries, but publishers must serialize among themselves (the update
// applier is the only publisher in live serving).
func (s *Server) Publish(idx *community.Index, seq uint64) uint64 {
	idx.Hierarchy()
	sums := idx.Checksums()
	num := uint64(1)
	if old := s.cur.Load(); old != nil {
		num = old.num + 1
	}
	s.cur.Store(&epoch{idx: idx, num: num, seq: seq, sums: sums})
	cEpochSwaps.Inc()
	// Entries cached under older epochs are unreachable now; purge them so
	// the retired epoch's storage (heap arrays, or an index file mapping
	// kept alive through SummaryGraph.Backing) is released as soon as
	// in-flight queries drain, instead of when the LRU happens to roll over.
	s.cache.PurgeBelow(num)
	return num
}

var errNotReady = errors.New("index not ready")

// ready returns the epoch queries may answer from, or why there is none: no
// epoch is published yet, or the published index's file mapping failed its
// deferred (lazy) checksum verification. Serving fails closed on the
// latter — a corrupt mapping must not answer — so /readyz and every query
// endpoint gate on this one check.
func (s *Server) ready() (*epoch, error) {
	ep := s.epoch()
	if ep == nil {
		return nil, errNotReady
	}
	if b, ok := ep.idx.SG.Backing.(interface{ VerifyErr() error }); ok {
		if err := b.VerifyErr(); err != nil {
			return nil, fmt.Errorf("%w: %v", errNotReady, err)
		}
	}
	return ep, nil
}

// handleReadyz is the readiness probe: 200 only once an index epoch is
// published — meaning any snapshot was loaded and the WAL replayed through
// the initial build — and its backing file has not failed verification.
// Distinct from /healthz (liveness): a recovering server is alive but not
// ready, and an orchestrator should route traffic only on readiness.
// Registered outside the admission limiter so probes keep passing under
// query overload.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ep, err := s.ready()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":       true,
		"epoch":       ep.num,
		"applied_seq": ep.seq,
	})
}

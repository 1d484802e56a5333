package truss

import (
	"context"
	"fmt"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// PeelKernel selects the TrussDecomp-stage implementation. The zero value
// is PeelAuto, which picks a kernel per instance from the edge count and
// the peel-level spread — the production default. All kernels produce
// bit-identical trussness.
type PeelKernel int

const (
	// PeelAuto picks serial, levelsync, or pkt per instance (see
	// ChoosePeelKernel).
	PeelAuto PeelKernel = iota
	// PeelSerial is the classic sequential bucket-queue peeling: exact
	// decrease-key, no atomics, no barriers — unbeatable on small graphs.
	PeelSerial
	// PeelLevelSync is the level-synchronous parallel peeling that rebuilds
	// each level's frontier with a full-edge scan (DecomposeParallelCtx).
	PeelLevelSync
	// PeelPKT is the scan-free parallel peeling: counting-sort seed
	// buckets, capture-on-transition frontiers, lazy adjacency compaction,
	// chunk-claimed dynamic scheduling (DecomposePKTCtx).
	PeelPKT
)

// String names the kernel for flags, metadata, and error messages.
func (k PeelKernel) String() string {
	switch k {
	case PeelAuto:
		return "auto"
	case PeelSerial:
		return "serial"
	case PeelLevelSync:
		return "levelsync"
	case PeelPKT:
		return "pkt"
	default:
		return fmt.Sprintf("PeelKernel(%d)", int(k))
	}
}

// ParsePeelKernel parses a kernel name as accepted by the -peel-kernel
// flag.
func ParsePeelKernel(s string) (PeelKernel, error) {
	switch s {
	case "auto", "":
		return PeelAuto, nil
	case "serial":
		return PeelSerial, nil
	case "levelsync", "level-sync", "ls":
		return PeelLevelSync, nil
	case "pkt", "scanfree", "scan-free":
		return PeelPKT, nil
	default:
		return 0, fmt.Errorf("truss: unknown peel kernel %q (want auto|serial|levelsync|pkt)", s)
	}
}

// Auto-selection thresholds. The level-synchronous kernel pays one full
// m-edge scan per distinct support level, so its overhead is proportional
// to m × spread (spread = max support + 1, the number of potential peel
// levels). The pkt kernel trades that for O(m) bucket setup plus lazy
// bookkeeping, which only pays off once the scan work is substantial.
const (
	peelSerialMaxEdges = 1 << 15 // below this, frontier machinery costs more than it saves
	pktMinScanWork     = 1 << 24 // m × spread above which per-level rescans dominate: pkt
)

// Counters recording what the auto heuristic decided, so a trace of a
// production build shows which peel kernel actually ran.
var (
	cPeelAutoSerial = obs.GetCounter("truss_peel_auto_serial",
		"auto kernel selections that picked the serial peel kernel")
	cPeelAutoLevelSync = obs.GetCounter("truss_peel_auto_levelsync",
		"auto kernel selections that picked the level-synchronous peel kernel")
	cPeelAutoPKT = obs.GetCounter("truss_peel_auto_pkt",
		"auto kernel selections that picked the scan-free pkt peel kernel")
)

// ChoosePeelKernel resolves PeelAuto for an instance: serial for small
// graphs, pkt when the rescan work the level-synchronous kernel would do
// (edge count × peel-level spread) is large, levelsync for the flat
// middle ground. maxSup is the maximum starting support (the peel-level
// spread); threads is the resolved parallelism.
func ChoosePeelKernel(m int64, maxSup int32, threads int) PeelKernel {
	if m < peelSerialMaxEdges {
		return PeelSerial
	}
	if m*int64(maxSup)+m >= pktMinScanWork {
		return PeelPKT
	}
	if threads == 1 {
		// Few levels and one thread: the serial bucket queue beats a
		// barrier-per-sub-round parallel kernel with no workers to feed.
		return PeelSerial
	}
	return PeelLevelSync
}

// DecomposeKernelCtx dispatches the TrussDecomp stage to the selected
// kernel (PeelAuto resolves per instance). All kernels share the production contract — cancellation at
// scheduler-barrier (or poll) granularity, per-thread "TrussDecomp" spans
// into tr, scheduler-barrier fault sites for the parallel forms — and
// produce bit-identical trussness and kmax. With a nil ctx the call cannot
// fail (see package concur).
func DecomposeKernelCtx(ctx context.Context, g *graph.Graph, supports []int32, k PeelKernel, threads int, tr *obs.Trace) (tau []int32, kmax int32, err error) {
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	if k == PeelAuto {
		var maxSup int32
		for _, s := range supports {
			if s > maxSup {
				maxSup = s
			}
		}
		k = ChoosePeelKernel(g.NumEdges(), maxSup, threads)
		switch k {
		case PeelSerial:
			cPeelAutoSerial.Inc()
		case PeelPKT:
			cPeelAutoPKT.Inc()
		default:
			cPeelAutoLevelSync.Inc()
		}
	}
	switch k {
	case PeelSerial:
		return DecomposeSerialCtx(ctx, g, supports)
	case PeelLevelSync:
		return DecomposeParallelCtx(ctx, g, supports, threads, tr)
	case PeelPKT:
		return DecomposePKTCtx(ctx, g, supports, threads, tr)
	default:
		return nil, 0, fmt.Errorf("truss: unknown peel kernel %v", k)
	}
}

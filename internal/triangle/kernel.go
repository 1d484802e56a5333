package triangle

import (
	"context"
	"fmt"

	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Kernel selects the Support-stage implementation. The zero value is
// KernelAuto, which picks a kernel per graph from one degree statistic —
// the production default.
type Kernel int

const (
	// KernelAuto picks merge or oriented per graph (see ChooseKernel).
	KernelAuto Kernel = iota
	// KernelMerge is the naive per-edge sorted-merge intersection: no
	// atomics, no setup cost, but hub edges pay for their full adjacency.
	KernelMerge
	// KernelOriented is the degree-oriented compact-forward kernel behind
	// the O(|E|^1.5) bound: each triangle is enumerated exactly once over
	// oriented out-lists of length O(√m).
	KernelOriented
)

// String names the kernel for flags, metadata, and error messages.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelMerge:
		return "merge"
	case KernelOriented:
		return "oriented"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel parses a kernel name as accepted by the -support-kernel flag.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "auto", "":
		return KernelAuto, nil
	case "merge":
		return KernelMerge, nil
	case "oriented", "forward", "compact-forward":
		return KernelOriented, nil
	default:
		return 0, fmt.Errorf("triangle: unknown support kernel %q (want auto|merge|oriented)", s)
	}
}

// orientedMinMergeLen is the auto rule's one threshold, on the merge
// kernel's mean intersection length per edge, Σ_v d(v)²/m (every edge
// (u,v) merges d(u)+d(v) entries). Planted-partition graphs sit at or below
// 15.6, where merge runs within ~30% of oriented's time at a sixth of its
// allocation; from about 18 on — ER, flat and skewed R-MAT — oriented is
// 1.2–4× faster. docs/ALGORITHMS.md has the sweep.
const orientedMinMergeLen = 20

// Counters recording what the auto rule decided, so a trace of a
// production build shows which kernel actually ran.
var (
	cAutoMerge = obs.GetCounter("support_auto_merge",
		"auto kernel selections that picked the merge Support kernel")
	cAutoOriented = obs.GetCounter("support_auto_oriented",
		"auto kernel selections that picked the oriented Support kernel")
)

// ChooseKernel resolves KernelAuto for a graph: oriented once merge's mean
// intersection length per edge reaches orientedMinMergeLen, merge below.
// The decision costs one O(|V|) degree scan.
func ChooseKernel(g *graph.Graph) Kernel {
	m := g.NumEdges()
	if m == 0 {
		return KernelMerge
	}
	var sumSq float64
	for v := int32(0); v < g.NumVertices(); v++ {
		d := float64(g.Degree(v))
		sumSq += d * d
	}
	if sumSq/float64(m) >= orientedMinMergeLen {
		return KernelOriented
	}
	return KernelMerge
}

// SupportsKernelCtx dispatches the Support stage to the selected kernel
// (KernelAuto resolves per graph). Both kernels share the production
// contract — cancellation at chunk-claim granularity, per-thread "Support"
// spans into tr, scheduler-barrier fault sites — and produce bit-identical
// supports. With a nil ctx the call cannot fail (see package concur).
func SupportsKernelCtx(ctx context.Context, g *graph.Graph, k Kernel, threads int, tr *obs.Trace) ([]int32, error) {
	if k == KernelAuto {
		k = ChooseKernel(g)
		if k == KernelOriented {
			cAutoOriented.Inc()
		} else {
			cAutoMerge.Inc()
		}
	}
	switch k {
	case KernelMerge:
		return SupportsCtx(ctx, g, threads, tr)
	case KernelOriented:
		return SupportsOrientedCtx(ctx, g, threads, tr)
	default:
		return nil, fmt.Errorf("triangle: unknown support kernel %v", k)
	}
}

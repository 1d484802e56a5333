package triangle

import (
	"context"
	"fmt"

	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Kernel selects the Support-stage implementation. The zero value is
// KernelAuto, which picks a kernel per graph from a skew/size heuristic —
// the production default.
type Kernel int

const (
	// KernelAuto picks merge, galloping, or oriented per graph (see
	// ChooseKernel).
	KernelAuto Kernel = iota
	// KernelMerge is the naive per-edge sorted-merge intersection: no
	// atomics, no setup cost, but hub edges pay for their full adjacency.
	KernelMerge
	// KernelGalloping is the merge kernel with binary-probing intersection
	// when one endpoint's list is much longer than the other.
	KernelGalloping
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
	case KernelGalloping:
		return "gallop"
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
	case "gallop", "galloping":
		return KernelGalloping, nil
	case "oriented", "forward", "compact-forward":
		return KernelOriented, nil
	default:
		return 0, fmt.Errorf("triangle: unknown support kernel %q (want auto|merge|gallop|oriented)", s)
	}
}

// Auto-selection thresholds. Skew is max degree over mean degree: the
// factor by which the worst hub edge's merge-intersection cost exceeds the
// average edge's. The oriented kernel's setup (rank, oriented CSR) only
// pays off once the graph is big AND skewed; galloping needs no setup, so
// it covers the moderately skewed middle ground.
const (
	autoMinEdges     = 1 << 15 // below this, setup cost dominates: merge
	orientedMinEdges = 1 << 16 // oriented needs enough edges to amortize setup
	orientedSkew     = 8.0     // skew above which oriented wins
	gallopSkew       = 3.0     // skew above which galloping beats plain merge
)

// Counters recording what the auto heuristic decided, so a trace of a
// production build shows which kernel actually ran.
var (
	cAutoMerge = obs.GetCounter("support_auto_merge",
		"auto kernel selections that picked the merge Support kernel")
	cAutoGallop = obs.GetCounter("support_auto_gallop",
		"auto kernel selections that picked the galloping Support kernel")
	cAutoOriented = obs.GetCounter("support_auto_oriented",
		"auto kernel selections that picked the oriented Support kernel")
)

// ChooseKernel resolves KernelAuto for a graph: oriented for large skewed
// graphs (power-law hubs), galloping for moderately skewed ones, merge for
// small or flat-degree graphs. The decision costs one O(|V|) degree scan.
func ChooseKernel(g *graph.Graph) Kernel {
	m := g.NumEdges()
	n := int64(g.NumVertices())
	if m < autoMinEdges || n == 0 {
		return KernelMerge
	}
	mean := float64(2*m) / float64(n)
	skew := float64(g.MaxDegree()) / mean
	if skew >= orientedSkew && m >= orientedMinEdges {
		return KernelOriented
	}
	if skew >= gallopSkew {
		return KernelGalloping
	}
	return KernelMerge
}

// SupportsKernelCtx dispatches the Support stage to the selected kernel
// (KernelAuto resolves per graph). All kernels share the production
// contract — cancellation at chunk-claim granularity, per-thread "Support"
// spans into tr, scheduler-barrier fault sites — and produce bit-identical
// supports. With a nil ctx the call cannot fail (see package concur).
func SupportsKernelCtx(ctx context.Context, g *graph.Graph, k Kernel, threads int, tr *obs.Trace) ([]int32, error) {
	if k == KernelAuto {
		k = ChooseKernel(g)
		switch k {
		case KernelGalloping:
			cAutoGallop.Inc()
		case KernelOriented:
			cAutoOriented.Inc()
		default:
			cAutoMerge.Inc()
		}
	}
	switch k {
	case KernelMerge:
		return SupportsCtx(ctx, g, threads, tr)
	case KernelGalloping:
		return SupportsGallopingCtx(ctx, g, threads, tr)
	case KernelOriented:
		return SupportsOrientedCtx(ctx, g, threads, tr)
	default:
		return nil, fmt.Errorf("triangle: unknown support kernel %v", k)
	}
}

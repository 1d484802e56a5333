package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// supportReps is how many times each (dataset, kernel) cell is timed; the
// minimum is recorded. Min-of-N is the standard defense against scheduler
// noise for short single-process benchmarks.
const supportReps = 3

// supportKernels is the sweep order. Merge first: the check mode normalizes
// every kernel's time by the same run's merge time, so merge rows must
// exist before ratios are formed.
var supportKernels = []triangle.Kernel{
	triangle.KernelMerge, triangle.KernelGalloping, triangle.KernelOriented,
}

// runSupport times every explicit Support kernel on the four-network set
// and records (dataset, kernel, seconds, checksum) rows into the artifact.
// All kernels must produce identical support arrays — a mismatch is a
// correctness bug, so the experiment panics rather than reporting a time
// for a wrong answer.
func runSupport(cfg config) {
	t := newTable("Network", "Kernel", "Seconds", "vsMerge")
	for _, name := range fourNets {
		g := dataset(cfg, name)
		mergeSec := 0.0
		var want uint64
		for i, k := range supportKernels {
			sec, sum := timeSupport(cfg, g, k, cfg.maxThr)
			if i == 0 {
				mergeSec, want = sec, sum
			} else if sum != want {
				panic(fmt.Sprintf("support kernel %s disagrees with merge on %s: checksum %#x != %#x",
					k, name, sum, want))
			}
			t.row(name, k.String(), sec, mergeSec/sec)
			if cfg.art != nil {
				cfg.art.SupportBench = append(cfg.art.SupportBench, supportRow{
					Dataset: name, Kernel: k.String(), Threads: cfg.maxThr,
					Seconds: sec, Checksum: sum,
				})
			}
		}
	}
	emit(cfg.sink, "support", "", t)
}

// rmat18Scale and rmat18EdgeFactor define the skewed stress graph from the
// acceptance criteria: 2^18 vertices, ~2M undirected edges, heavy-tailed
// degree distribution where the oriented kernel's O(m^1.5) bound beats
// merge's hub-quadratic intersections.
const (
	rmat18Scale      = 18
	rmat18EdgeFactor = 8
	rmat18Seed       = 42
)

// runRMAT18 builds the scale-18 RMAT graph and times the Support stage with
// the configured -support-kernel (auto resolves per the heuristic), then
// runs the truss decomposition so the artifact also witnesses the supports
// feed a correct downstream τ. Excluded from `-experiment all`: it is the
// committed-artifact producer, run explicitly once per kernel.
func runRMAT18(cfg config) {
	g := gen.RMAT(rmat18Scale, rmat18EdgeFactor, 0.57, 0.19, 0.19, rmat18Seed)
	fmt.Printf("rmat18: %d vertices, %d edges, kernel=%s, peel=%s\n",
		g.NumVertices(), g.NumEdges(), cfg.kernel, cfg.peel)
	sec, sum := timeSupport(cfg, g, cfg.kernel, cfg.maxThr)
	sup, _ := triangle.SupportsKernelCtx(nil, g, cfg.kernel, cfg.maxThr, nil)
	start := time.Now()
	tau, _, _ := truss.DecomposeKernelCtx(nil, g, sup, cfg.peel, cfg.maxThr, nil)
	decomp := time.Since(start)
	cfg.observe(decomp)
	decompSec := decomp.Seconds()
	t := newTable("Graph", "Kernel", "Peel", "Support(s)", "Decompose(s)", "SupSum", "TauSum")
	t.row("rmat18", cfg.kernel.String(), cfg.peel.String(), sec, decompSec, sum, checksumInt32(tau))
	if cfg.art != nil {
		cfg.art.SupportBench = append(cfg.art.SupportBench, supportRow{
			Dataset: "rmat18", Kernel: cfg.kernel.String(), Threads: cfg.maxThr,
			Seconds: sec, Checksum: sum,
		})
		cfg.art.PeelBench = append(cfg.art.PeelBench, peelRow{
			Dataset: "rmat18", Kernel: cfg.peel.String(), Threads: cfg.maxThr,
			Seconds: decompSec, Checksum: checksumInt32(tau),
		})
	}
	emit(cfg.sink, "rmat18", "", t)
}

// timeSupport returns the min-of-reps Support time in seconds and the
// FNV-1a checksum of the resulting support array. Every individual rep is
// also observed into the experiment's latency histogram, so the artifact's
// quantiles describe the full sample population while the returned
// min-of-reps keeps the -check ratios noise-resistant.
func timeSupport(cfg config, g *graph.Graph, k triangle.Kernel, threads int) (float64, uint64) {
	best := 0.0
	var sum uint64
	for r := 0; r < supportReps; r++ {
		start := time.Now()
		sup, _ := triangle.SupportsKernelCtx(nil, g, k, threads, nil)
		dur := time.Since(start)
		cfg.observe(dur)
		sec := dur.Seconds()
		if r == 0 || sec < best {
			best = sec
		}
		sum = checksumInt32(sup)
	}
	return best, sum
}

// checksumInt32 hashes an int32 array with FNV-1a — order-sensitive, so two
// kernels match only if they agree edge-for-edge.
func checksumInt32(a []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range a {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// --- benchcheck: regression gate against a committed baseline ---------------

// checkNoiseFloorSec: datasets whose merge time is below this are too small
// to time reliably; their ratios are skipped rather than flagged.
const checkNoiseFloorSec = 0.002

// checkMargin: a kernel's normalized time (its seconds / the same run's
// merge seconds) may exceed the baseline's normalized time by at most this
// factor. Ratios of ratios cancel machine speed, so the committed baseline
// stays meaningful on any hardware.
const checkMargin = 1.20

// checkAgainstBaseline compares the current run's SupportBench, QueryBench,
// and PeelBench rows against a committed baseline artifact. Support rows
// normalize each kernel's time by the same run's merge time; query rows by
// the same run's indexed-bfs time for that (dataset, workload); peel rows
// by the same run's levelsync time. Ratios of ratios cancel machine speed,
// so the committed baseline stays meaningful on any hardware. The check
// fails if any current ratio regressed more than checkMargin over the
// baseline's — and a row the baseline should have but lacks is a loud
// failure, never a silent pass.
func checkAgainstBaseline(path string, art *benchArtifact) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchArtifact
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if len(art.SupportBench) == 0 && len(art.QueryBench) == 0 && len(art.PeelBench) == 0 &&
		len(art.UpdateBench) == 0 && len(art.ColdstartBench) == 0 {
		return fmt.Errorf("current run produced no support_bench, query_bench, peel_bench, update_bench, or coldstart_bench rows (run -experiment support,query,peel,update,coldstart)")
	}
	checked := 0
	if len(art.SupportBench) > 0 {
		if len(base.SupportBench) == 0 {
			return fmt.Errorf("baseline %s has no support_bench rows", path)
		}
		n, err := checkSupportRows(&base, art)
		if err != nil {
			return err
		}
		checked += n
	}
	if len(art.QueryBench) > 0 {
		if len(base.QueryBench) == 0 {
			return fmt.Errorf("baseline %s has no query_bench rows (regenerate it with -experiment support,query,peel)", path)
		}
		n, err := checkQueryRows(&base, art)
		if err != nil {
			return err
		}
		checked += n
	}
	if len(art.PeelBench) > 0 {
		if len(base.PeelBench) == 0 {
			return fmt.Errorf("baseline %s has no peel_bench rows (regenerate it with -experiment support,query,peel)", path)
		}
		n, err := checkPeelRows(&base, art)
		if err != nil {
			return err
		}
		checked += n
	}
	if len(art.UpdateBench) > 0 {
		if len(base.UpdateBench) == 0 {
			return fmt.Errorf("baseline %s has no update_bench rows (regenerate it with -experiment support,query,peel,update)", path)
		}
		n, err := checkUpdateRows(&base, art)
		if err != nil {
			return err
		}
		checked += n
	}
	if len(art.ColdstartBench) > 0 {
		if len(base.ColdstartBench) == 0 {
			return fmt.Errorf("baseline %s has no coldstart_bench rows (regenerate it with -experiment coldstart)", path)
		}
		n, err := checkColdstartRows(&base, art)
		if err != nil {
			return err
		}
		checked += n
	}
	if checked == 0 {
		return fmt.Errorf("no comparable rows above the %.0fms noise floor", checkNoiseFloorSec*1000)
	}
	return nil
}

// checkSupportRows gates the (dataset, kernel) cells, normalized by the
// merge kernel within each artifact. Returns how many cells were compared.
func checkSupportRows(base, art *benchArtifact) (int, error) {
	baseMerge := mergeSeconds(base.SupportBench)
	curMerge := mergeSeconds(art.SupportBench)
	checked := 0
	for _, row := range art.SupportBench {
		if row.Kernel == "merge" {
			continue
		}
		cm, okC := curMerge[row.Dataset]
		if !okC {
			return checked, fmt.Errorf("support %s/%s: current run has no merge row to normalize by (run the full support sweep)",
				row.Dataset, row.Kernel)
		}
		bm, okB := baseMerge[row.Dataset]
		if !okB {
			return checked, fmt.Errorf("support %s/%s: baseline %s has no merge row for this dataset (regenerate the baseline)",
				row.Dataset, row.Kernel, base.GitRev)
		}
		if bm < checkNoiseFloorSec || cm < checkNoiseFloorSec {
			continue
		}
		var baseSec float64
		found := false
		for _, b := range base.SupportBench {
			if b.Dataset == row.Dataset && b.Kernel == row.Kernel {
				baseSec, found = b.Seconds, true
				break
			}
		}
		if !found {
			return checked, fmt.Errorf("support %s/%s: no baseline row in %s — the gate cannot pass by omission (regenerate the baseline)",
				row.Dataset, row.Kernel, base.GitRev)
		}
		curRatio := row.Seconds / cm
		baseRatio := baseSec / bm
		checked++
		if curRatio > baseRatio*checkMargin {
			return checked, fmt.Errorf("%s/%s: normalized Support time %.3f (was %.3f in baseline %s) — >%.0f%% regression",
				row.Dataset, row.Kernel, curRatio, baseRatio, base.GitRev, (checkMargin-1)*100)
		}
		fmt.Printf("# benchcheck %s/%-8s ratio %.3f vs baseline %.3f ok\n",
			row.Dataset, row.Kernel, curRatio, baseRatio)
	}
	return checked, nil
}

// checkQueryRows gates the (dataset, workload, engine) cells, normalized by
// the indexed-bfs engine within each artifact. Engine times below the noise
// floor are skipped as numerators too — a microsecond-scale hierarchy
// answer cannot regress measurably, and its jitter would make the ratio
// meaningless.
func checkQueryRows(base, art *benchArtifact) (int, error) {
	baseRef := bfsSeconds(base.QueryBench)
	curRef := bfsSeconds(art.QueryBench)
	checked := 0
	for _, row := range art.QueryBench {
		if row.Engine == "indexed-bfs" {
			continue
		}
		key := row.Dataset + "/" + row.Workload
		cr, okC := curRef[key]
		if !okC {
			return checked, fmt.Errorf("query %s/%s: current run has no indexed-bfs row to normalize by (run the full query sweep)",
				key, row.Engine)
		}
		br, okB := baseRef[key]
		if !okB {
			return checked, fmt.Errorf("query %s/%s: baseline %s has no indexed-bfs row for this workload (regenerate the baseline)",
				key, row.Engine, base.GitRev)
		}
		if br < checkNoiseFloorSec || cr < checkNoiseFloorSec {
			continue
		}
		if row.Seconds < checkNoiseFloorSec {
			continue
		}
		var baseSec float64
		found := false
		for _, b := range base.QueryBench {
			if b.Dataset == row.Dataset && b.Workload == row.Workload && b.Engine == row.Engine {
				baseSec, found = b.Seconds, true
				break
			}
		}
		if !found {
			return checked, fmt.Errorf("query %s/%s: no baseline row in %s — the gate cannot pass by omission (regenerate the baseline)",
				key, row.Engine, base.GitRev)
		}
		if baseSec < checkNoiseFloorSec {
			continue
		}
		curRatio := row.Seconds / cr
		baseRatio := baseSec / br
		checked++
		if curRatio > baseRatio*checkMargin {
			return checked, fmt.Errorf("%s/%s/%s: normalized query time %.3f (was %.3f in baseline %s) — >%.0f%% regression",
				row.Dataset, row.Workload, row.Engine, curRatio, baseRatio, base.GitRev, (checkMargin-1)*100)
		}
		fmt.Printf("# benchcheck %s/%s/%-11s ratio %.3f vs baseline %.3f ok\n",
			row.Dataset, row.Workload, row.Engine, curRatio, baseRatio)
	}
	return checked, nil
}

// bfsSeconds indexes the indexed-bfs reference time per dataset/workload.
func bfsSeconds(rows []queryRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.Engine == "indexed-bfs" {
			out[r.Dataset+"/"+r.Workload] = r.Seconds
		}
	}
	return out
}

// mergeSeconds indexes the merge-kernel time per dataset.
func mergeSeconds(rows []supportRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.Kernel == "merge" {
			out[r.Dataset] = r.Seconds
		}
	}
	return out
}

package main

import (
	"math"
	"time"
)

// queryLimitP99 is the latency limit of the capacity search: a probed rate
// passes when its p99 stays within it and the generator keeps up. The build workload's "why" in BENCHMARK.json
// states the same value.
const queryLimitP99 = 20 * time.Millisecond

// liveFamily is the surrogate family of every workload's live graph.
const liveFamily = "dblp-sim"

// Settings every workload shares.
const (
	restartsPerRound = 2    // timed restarts per round
	nominalRPS       = 1000 // open-loop rate of the nominal serving windows
	probeStartRPS    = 4000 // first rate the capacity search offers
	bisections       = 3    // capacity-search bisection steps
	batchInserts     = 4    // inserts per update batch
	batchDeletes     = 2    // deletes per update batch
	compactEvery     = 16   // applied batches between snapshot compactions
)

// workload fixes one traffic shape. Every workload runs the same phases —
// build at nproc and 1 thread, restart, query serving with a capacity
// search, live churn, recovery — so every end-to-end metric is measured on
// every workload; the graph family and the share of the run each phase gets
// decide which layers dominate.
type workload struct {
	Name     string
	Why      string
	Stresses []string
	Light    []string

	// Input graph: an R-MAT graph with the skew parameters of a built-in
	// surrogate family, at 2^Scale vertices and EdgeFactor·2^Scale edges
	// before deduplication, or — for a planted-partition family — Comms
	// planted communities. The seed perturbs the generator.
	Family            string
	Scale, EdgeFactor int
	Comms             int32
	// LiveComms sizes the planted-partition graph of liveFamily that the
	// churn phase updates (the input graph itself when they coincide).
	LiveComms int32

	// Rounds is how many times the phases take turns (see runPass).
	// NominalShare and ChurnShare are the shares of the measured seconds
	// given to nominal-rate serving and to churn; Recovers is the number
	// of timed recoveries at the end.
	Rounds       int
	Recovers     int
	NominalShare float64
	ChurnShare   float64

	// ProbeSeconds is the length of one capacity-search probe and
	// SaturateSeconds that of the closed-loop burst each round's serving
	// ends with (query_max_rps).
	ProbeSeconds    float64
	SaturateSeconds float64

	// Churn phase: reader and writer rates (open loop).
	ChurnReadRPS  float64
	ChurnWriteBPS float64
	// QueryUnderChurn takes query_p50_ms from the churn-phase reader, so
	// they show what the epoch purge costs reads.
	QueryUnderChurn bool
}

var workloads = []workload{
	{
		Name:     "build",
		Why:      "The paper's experiment: orkut-family R-MAT edge list to v3 index at nproc and 1 thread, mmap restart, loopback queries at assumed mix/rates; build layers dominate; capacity search p99 limit 20 ms.",
		Stresses: []string{"graphio", "graph", "triangle", "truss", "core", "server", "community"},
		Light:    []string{"dynamic", "wal"},
		Family:   "orkut-sim", Scale: 13, EdgeFactor: 10, LiveComms: 1000,
		Rounds: 8, Recovers: 15, NominalShare: 0.25, ChurnShare: 0.2,
		ProbeSeconds: 0.5, SaturateSeconds: 0.5, ChurnReadRPS: 100, ChurnWriteBPS: 30,
	},
	{
		Name:     "churn",
		Why:      "Writes beside reads on a live server (fsync always, update-mode auto, assumed rates) over a dblp-family graph, then recovery from snapshot + WAL tail; wal/dynamic/community dominate.",
		Stresses: []string{"wal", "dynamic", "community", "server"},
		Light:    []string{"triangle", "truss"},
		Family:   "dblp-sim", Comms: 4000, LiveComms: 4000,
		Rounds: 8, Recovers: 13, NominalShare: 0.1, ChurnShare: 0.5,
		ProbeSeconds: 0.5, SaturateSeconds: 0.5, ChurnReadRPS: 300, ChurnWriteBPS: 10, QueryUnderChurn: true,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks the workload for the package's smoke test: each halving
// of s drops one R-MAT scale step (never below 2^8 vertices) and the
// repetition minimums fall to what a short run can hold.
func (w workload) scaled(s float64) workload {
	if s >= 1 {
		return w
	}
	w.Scale -= int(math.Round(math.Log2(1 / s)))
	if w.Scale < 8 {
		w.Scale = 8
	}
	w.Comms = int32(math.Max(64, float64(w.Comms)*s))
	w.LiveComms = int32(math.Max(64, float64(w.LiveComms)*s))
	w.Rounds, w.Recovers = 2, 2
	w.ProbeSeconds = 0.1
	w.SaturateSeconds = 0.1
	return w
}

// describe is the workload's record in the artifact.
func (w workload) describe() map[string]any {
	return map[string]any{
		"name": w.Name, "why": w.Why, "stresses": w.Stresses, "light": w.Light,
		"graph":      map[string]any{"family": w.Family, "rmat_scale": w.Scale, "edge_factor": w.EdgeFactor, "planted_communities": w.Comms},
		"live_graph": map[string]any{"family": liveFamily, "planted_communities": w.LiveComms},
		"rounds":     w.Rounds, "restarts_per_round": restartsPerRound, "recovers": w.Recovers,
		"nominal_share": w.NominalShare, "churn_share": w.ChurnShare,
		"serve": map[string]any{
			"nominal_rps": nominalRPS, "probe_start_rps": probeStartRPS,
			"probe_seconds": w.ProbeSeconds, "bisections": bisections, "saturate_seconds": w.SaturateSeconds,
			"latency_limit_p99_ms": ms(queryLimitP99), "loop": "open",
			"mix": requestMix,
		},
		"churn": map[string]any{
			"read_rps": w.ChurnReadRPS, "write_batches_per_s": w.ChurnWriteBPS,
			"batch_inserts": batchInserts, "batch_deletes": batchDeletes,
			"wal_sync": "always", "update_mode": "auto", "compact_every": compactEvery,
			"query_metrics_from_churn_reader": w.QueryUnderChurn,
		},
	}
}

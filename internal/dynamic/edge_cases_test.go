package dynamic

import (
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// cliqueDyn returns a dynamic n-clique with exact trussness, for tests that
// mutate from a known starting state.
func cliqueDyn(t *testing.T, n int32) *Graph {
	t.Helper()
	g := gen.Clique(n)
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	return FromStatic(g, tau)
}

// TestDeleteNonexistentEdge pins the delete-miss contract: deleting an edge
// that was never inserted (or whose endpoints do not even exist) returns
// false and leaves every trussness value untouched.
func TestDeleteNonexistentEdge(t *testing.T) {
	dg := cliqueDyn(t, 5)
	before := dg.TauSnapshot()
	for _, e := range [][2]int32{
		{0, 0},     // self "edge" was never representable
		{0, 7},     // endpoint beyond the vertex range
		{100, 200}, // both endpoints unknown
	} {
		if dg.DeleteEdge(e[0], e[1]) {
			t.Fatalf("DeleteEdge(%d,%d) deleted a nonexistent edge", e[0], e[1])
		}
	}
	// Delete a real edge, then delete it again: second attempt must miss.
	if !dg.DeleteEdge(1, 2) {
		t.Fatal("deleting a real edge failed")
	}
	if dg.DeleteEdge(1, 2) {
		t.Fatal("double delete reported success")
	}
	if dg.DeleteEdge(2, 1) {
		t.Fatal("double delete (reversed endpoints) reported success")
	}
	assertExact(t, dg, "after delete misses")
	after := dg.TauSnapshot()
	if len(after) != len(before)-1 {
		t.Fatalf("edge count %d, want %d", len(after), len(before)-1)
	}
}

// TestDuplicateInsertsInBatch pins the batch-replay semantics the WAL
// applier and recovery rely on: inserting the same edge repeatedly inside
// one batch is idempotent — first insert wins, the rest are no-ops — so a
// log with redundant records replays to the same state.
func TestDuplicateInsertsInBatch(t *testing.T) {
	dg := cliqueDyn(t, 4)
	batch := [][2]int32{{4, 0}, {4, 1}, {4, 0}, {4, 1}, {4, 2}, {4, 0}}
	inserted := 0
	for _, e := range batch {
		ok, err := dg.InsertEdge(e[0], e[1])
		if err != nil {
			t.Fatalf("insert (%d,%d): %v", e[0], e[1], err)
		}
		if ok {
			inserted++
		}
	}
	if inserted != 3 {
		t.Fatalf("%d effective inserts, want 3 (duplicates must be no-ops)", inserted)
	}
	assertExact(t, dg, "after duplicate-heavy batch")

	// Reference: the same logical batch without duplicates.
	ref := cliqueDyn(t, 4)
	for _, e := range [][2]int32{{4, 0}, {4, 1}, {4, 2}} {
		if _, err := ref.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want, got := ref.TauSnapshot(), dg.TauSnapshot()
	if len(want) != len(got) {
		t.Fatalf("edge counts differ: %d vs %d", len(got), len(want))
	}
	for key, w := range want {
		if got[key] != w {
			u, v := unpack(key)
			t.Fatalf("τ(%d,%d) = %d, deduped reference %d", u, v, got[key], w)
		}
	}
}

// TestInsertThenDeleteSameEdgeInBatch pins ordered batch semantics: ops in
// one batch apply strictly in order, so insert-then-delete of the same edge
// nets out to no edge, and delete-then-insert nets out to the edge present
// — each with exact trussness either way.
func TestInsertThenDeleteSameEdgeInBatch(t *testing.T) {
	dg := cliqueDyn(t, 5)
	before := dg.TauSnapshot()

	// insert (5,0) then delete it: net no-op.
	if ok, err := dg.InsertEdge(5, 0); !ok || err != nil {
		t.Fatalf("insert: %v %v", ok, err)
	}
	if !dg.DeleteEdge(5, 0) {
		t.Fatal("delete of just-inserted edge failed")
	}
	assertExact(t, dg, "insert+delete same edge")
	after := dg.TauSnapshot()
	if len(after) != len(before) {
		t.Fatalf("edge count changed: %d -> %d", len(before), len(after))
	}
	for key, w := range before {
		if after[key] != w {
			u, v := unpack(key)
			t.Fatalf("τ(%d,%d) drifted: %d -> %d", u, v, w, after[key])
		}
	}

	// delete (0,1) then reinsert it: trussness must return to the clique
	// value (exactness through the dip, not just at the end).
	if !dg.DeleteEdge(0, 1) {
		t.Fatal("delete (0,1) failed")
	}
	assertExact(t, dg, "after delete half of the pair")
	if ok, err := dg.InsertEdge(0, 1); !ok || err != nil {
		t.Fatalf("reinsert: %v %v", ok, err)
	}
	assertExact(t, dg, "after reinsert")
	if tau, ok := dg.Trussness(0, 1); !ok || tau != 5 {
		t.Fatalf("τ(0,1) after reinsert = %d (ok=%v), want 5", tau, ok)
	}
}

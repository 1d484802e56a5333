package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"equitruss/internal/community"
	"equitruss/internal/graph"
)

// commDoc and queryDoc mirror the server's JSON answers.
type commDoc struct {
	K        int32   `json:"k"`
	Size     int64   `json:"size"`
	NumEdges int64   `json:"num_edges"`
	Vertices []int32 `json:"vertices"`
}

type queryDoc struct {
	Vertex      int32     `json:"vertex"`
	K           int32     `json:"k"`
	Count       int       `json:"count"`
	Communities []commDoc `json:"communities"`
}

type membershipDoc struct {
	Vertex     int32           `json:"vertex"`
	MaxK       int32           `json:"max_k"`
	Membership map[int32]int64 `json:"membership"`
}

type batchDoc struct {
	Results []queryDoc `json:"results"`
}

// expected renders the reference answer for one key in the server's terms:
// communities sorted by (size, edges, first vertex), vertex lists sorted.
func expected(ref *community.Index, k key, withVertices bool) queryDoc {
	refs := ref.CommunityRefs(k.V, k.K)
	doc := queryDoc{Vertex: k.V, K: k.K, Count: len(refs), Communities: make([]commDoc, len(refs))}
	for i, r := range refs {
		c := commDoc{K: r.K, Size: r.NumVertices(), NumEdges: r.NumEdges()}
		if withVertices {
			c.Vertices = r.Community().Vertices()
		}
		doc.Communities[i] = c
	}
	return canonical(doc)
}

// canonical orders a query answer so two equal community sets compare
// equal whatever order the hierarchy lists them in.
func canonical(d queryDoc) queryDoc {
	for i := range d.Communities {
		vs := append([]int32(nil), d.Communities[i].Vertices...)
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
		if len(vs) == 0 {
			vs = nil
		}
		d.Communities[i].Vertices = vs
	}
	sort.Slice(d.Communities, func(a, b int) bool {
		x, y := d.Communities[a], d.Communities[b]
		if x.Size != y.Size {
			return x.Size < y.Size
		}
		if x.NumEdges != y.NumEdges {
			return x.NumEdges < y.NumEdges
		}
		return first(x.Vertices) < first(y.Vertices)
	})
	if len(d.Communities) == 0 {
		d.Communities = nil
	}
	return d
}

func first(vs []int32) int32 {
	if len(vs) == 0 {
		return -1
	}
	return vs[0]
}

// checkAnswer compares one served response body with the reference index.
func checkAnswer(ref *community.Index, r request, body []byte) error {
	switch r.Kind {
	case reqCommunity, reqCommunityVerts:
		var got queryDoc
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: bad JSON: %w", r.Path, err)
		}
		return sameQuery(r.Path, canonical(got), expected(ref, r.Key, r.Kind == reqCommunityVerts))
	case reqMembership:
		var got membershipDoc
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: bad JSON: %w", r.Path, err)
		}
		want := membershipDoc{Vertex: r.Key.V, MaxK: ref.MaxK(r.Key.V), Membership: map[int32]int64{}}
		for k, n := range ref.Membership(r.Key.V) {
			want.Membership[k] = int64(n)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: got %+v, want %+v", r.Path, got, want)
		}
		return nil
	case reqBatch:
		var got batchDoc
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("batch: bad JSON: %w", err)
		}
		if len(got.Results) != len(r.Keys) {
			return fmt.Errorf("batch: %d results for %d queries", len(got.Results), len(r.Keys))
		}
		for i, k := range r.Keys {
			if err := sameQuery(fmt.Sprintf("batch[%d]", i), canonical(got.Results[i]), expected(ref, k, false)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %d", r.Kind)
}

func sameQuery(what string, got, want queryDoc) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: got %+v, want %+v", what, got, want)
	}
	return nil
}

// wellFormed checks an answer served while the index is changing under
// it: it must parse and be self-consistent. Its content is pinned later by
// the checksum gate over the final state.
func wellFormed(r request, body []byte) error {
	switch r.Kind {
	case reqMembership:
		var d membershipDoc
		return json.Unmarshal(body, &d)
	case reqBatch:
		var d batchDoc
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		if len(d.Results) != len(r.Keys) {
			return fmt.Errorf("batch: %d results for %d queries", len(d.Results), len(r.Keys))
		}
		return nil
	default:
		var d queryDoc
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		if d.Count != len(d.Communities) || d.Vertex != r.Key.V {
			return fmt.Errorf("%s: inconsistent answer %+v", r.Path, d)
		}
		return nil
	}
}

// checkDirect compares the reference index with the index-free oracle
// (DirectCommunities: a BFS over the maximal k-truss) on sampled keys.
func checkDirect(ref *community.Index, g *graph.Graph, tau []int32, keys []key) error {
	for _, k := range keys {
		var want []commDoc
		for _, c := range community.DirectCommunities(g, tau, k.V, k.K) {
			want = append(want, commDoc{K: c.K, Size: int64(len(c.Vertices())), NumEdges: int64(len(c.Edges)), Vertices: c.Vertices()})
		}
		w := canonical(queryDoc{Vertex: k.V, K: k.K, Count: len(want), Communities: want})
		if err := sameQuery(fmt.Sprintf("DirectCommunities(v=%d,k=%d)", k.V, k.K), expected(ref, k, true), w); err != nil {
			return err
		}
	}
	return nil
}

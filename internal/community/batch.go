package community

import (
	"context"

	"equitruss/internal/concur"
	"equitruss/internal/obs"
)

// BatchCommunitiesCtx answers one query per (vertex, k) pair in parallel —
// the online-service shape the index targets: many concurrent personalized
// community lookups against one immutable index. Results align with the
// input slice; queries are independent and read-only, so they parallelize
// perfectly. Workers check ctx before claiming each query chunk, so a
// canceled (or deadline-expired) batch returns ctx.Err() promptly instead
// of finishing the whole slice; with a nil ctx the call cannot fail.
func (idx *Index) BatchCommunitiesCtx(ctx context.Context, queries []Query, threads int) ([][]*Community, error) {
	out := make([][]*Community, len(queries))
	if err := concur.ForDynamic(ctx, nil, "", len(queries), threads, 8, func(i int) {
		out[i] = idx.Communities(queries[i].Vertex, queries[i].K)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchCommunityRefsCtx answers one query per (vertex, k) pair in parallel
// with compact Refs instead of materialized communities — the serving-layer
// form: counts come free with the ref, edge lists are materialized per
// response only when a client asks. The hierarchy is built up front (not
// inside the workers) so a canceled batch never half-builds it.
func (idx *Index) BatchCommunityRefsCtx(ctx context.Context, queries []Query, threads int) ([][]Ref, error) {
	idx.Hierarchy()
	out := make([][]Ref, len(queries))
	// One stage spanning the whole fan-out: stage recording is
	// single-goroutine by contract, so the workers do not open sub-stages.
	st := obs.StartStageFromContext(ctx, "hierarchy query")
	err := concur.ForDynamic(ctx, nil, "", len(queries), threads, 8, func(i int) {
		out[i] = idx.CommunityRefs(queries[i].Vertex, queries[i].K)
	})
	st.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Query is one community lookup.
type Query struct {
	Vertex int32
	K      int32
}

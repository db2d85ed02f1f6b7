package service

import (
	"context"

	"comparesets/internal/core"
	"comparesets/internal/model"
	"comparesets/internal/opinion"
	"comparesets/internal/simgraph"
)

// batchReq is one member of a batch group: everything the group executor
// needs to run the member's pipeline. ctx is the member's flight context —
// it dies when the member's last HTTP waiter disconnects, so the executor
// can skip abandoned slots without touching the rest of the group.
type batchReq struct {
	ctx context.Context
	req *SelectRequest
	// inst is resolved by the submitting handler inside the same lock
	// snapshot as the member's cache key, so key and instance always agree
	// on the corpus view even when mutations land mid-batch.
	inst   *model.Instance
	corpus *model.Corpus
	sel    core.Selector
	solver simgraph.Solver
}

// batchRes is one member's outcome. Per-slot failures ride inside the
// result (err) rather than failing the group: one bad target must not
// poison the co-batched requests.
type batchRes struct {
	payload   []byte
	canonical bool
	err       error
}

// executeBatch runs one sealed group of same-shape select requests. The
// group-shared work happens once — a single feature-slab warm pass over the
// union of the members' items, feeding the corpus's shared ProblemCache so
// per-item regression problems built for one member are reused by every
// other member (and by later requests) — then each member's pipeline runs
// sequentially: problem shares make concurrent members safe, but on a
// saturated host interleaving them buys nothing and sequential execution
// keeps the group's cache and allocator behavior deterministic. Each member
// runs on its own flight context: an abandoned member is skipped at its
// slot without affecting the rest.
func (s *Server) executeBatch(gctx context.Context, reqs []*batchReq) ([]*batchRes, error) {
	out := make([]*batchRes, len(reqs))
	insts := make([]*model.Instance, len(reqs))
	for i, q := range reqs {
		// Members arrive with their instances pre-resolved; the fallback
		// covers direct Submit callers (tests) that skip the handler.
		if q.inst != nil {
			insts[i] = q.inst
			continue
		}
		inst, err := q.corpus.NewInstance(q.req.Target, q.req.MaxComparative)
		if err != nil {
			out[i] = &batchRes{err: notFound("%v", err)}
			continue
		}
		insts[i] = inst
	}

	// The group's single slab pass: touch the union of the members' items
	// once so every member's feature build finds resident slabs (and, in
	// compact mode, resident float32 companions). The group key pins one
	// corpus, hence one feature store. The scheme matches computeSelect's
	// default (the API always selects under Binary).
	s.mu.RLock()
	fs := s.feats[reqs[0].req.Category]
	pc := s.problems[reqs[0].req.Category]
	s.mu.RUnlock()
	if fs != nil {
		seen := make(map[*model.Item]bool)
		var items []*model.Item
		for _, inst := range insts {
			if inst == nil {
				continue
			}
			for _, it := range inst.Items {
				if !seen[it] {
					seen[it] = true
					items = append(items, it)
				}
			}
		}
		fs.Warm(items, opinion.Binary{}, s.float32)
	}

	for i, q := range reqs {
		if out[i] != nil {
			continue
		}
		if err := q.ctx.Err(); err != nil {
			out[i] = &batchRes{err: err}
			continue
		}
		resp, apiErr := s.computeSelect(q.ctx, q.req, insts[i], fs, q.sel, q.solver, pc)
		if apiErr != nil {
			out[i] = &batchRes{err: apiErr}
			continue
		}
		// Pooled-scratch encoding with writeJSON's trailing-newline framing
		// baked in (byte-identical to the unbatched flight path).
		payload := s.encodeSelectPayload(resp)
		out[i] = &batchRes{payload: payload, canonical: canonical(resp)}
	}
	return out, nil
}

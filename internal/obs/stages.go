package obs

import "time"

// Pipeline stage names instrumented across the selection pipeline. Each
// stage is one series of the comparesets_pipeline_stage_duration_seconds
// histogram family.
const (
	// StageFeatureBuild is the per-instance feature-cache construction
	// (internal/core.newFeatureCache).
	StageFeatureBuild = "feature_build"
	// StageNOMP is one non-negative OMP path computation
	// (internal/regress.Problem NOMP loop).
	StageNOMP = "nomp"
	// StageNNLS is the cumulative warm-started NNLS time within one NOMP
	// path (the Lawson–Hanson refits).
	StageNNLS = "nnls"
	// StageRound is one solve's candidate loop after its NOMP path:
	// rounding every iterate, deduplicating the candidates, expanding and
	// scoring them (internal/regress.Problem).
	StageRound = "round"
	// StageSweep is one full alternating re-selection pass of Algorithm 1
	// (internal/core.CompaReSetSPlus).
	StageSweep = "sweep"
	// StageShortlist is one TargetHkS solve (internal/simgraph).
	StageShortlist = "shortlist"
	// StageShortlistExact is one exact branch-and-bound solve inside the
	// shortlist stage (internal/simgraph.Exact), isolating search time
	// from graph construction and heuristic fallbacks.
	StageShortlistExact = "shortlist_exact"
	// StagePrecompute is one item's corpus-resident feature slab build
	// (internal/featstore).
	StagePrecompute = "feature_precompute"
	// StageMutateApply is one corpus mutation's apply pass: the
	// copy-on-write model mutation, the WAL append, the incremental
	// feature refill, and the per-item cache invalidation
	// (internal/service mutation endpoints).
	StageMutateApply = "mutate_apply"
	// StageRouterForward is one routed request's backend exchange in the
	// distributed tier — forward, wait, copy response — excluding router-side
	// queueing and retries (internal/cluster).
	StageRouterForward = "router_forward"
	// StageRouterEdge is one warm read answered from the router's edge
	// response cache without touching a backend (internal/cluster).
	StageRouterEdge = "router_edge"
	// StageSnapshotShip is one corpus snapshot transfer: manifest encode
	// plus CSLG log streaming on the serving side (internal/cluster).
	StageSnapshotShip = "snapshot_ship"
)

const stageMetricName = "comparesets_pipeline_stage_duration_seconds"

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the selection pipeline's
// stage timers record into and that internal/service exposes at /metrics.
func Default() *Registry { return defaultRegistry }

// stageHists is populated once at init and read-only afterwards, so the
// hot-path lookup in ObserveStage is a plain map read with no locking.
var stageHists = func() map[string]*Histogram {
	known := []string{StageFeatureBuild, StageNOMP, StageNNLS, StageRound, StageSweep, StageShortlist, StageShortlistExact, StagePrecompute, StageMutateApply, StageRouterForward, StageRouterEdge, StageSnapshotShip}
	m := make(map[string]*Histogram, len(known))
	for _, stage := range known {
		m[stage] = defaultRegistry.Histogram(stageMetricName,
			"Wall-clock time of one selection pipeline stage execution.",
			nil, Labels{"stage": stage})
	}
	return m
}()

// StageHistogram returns the histogram series for a pipeline stage,
// registering unknown stages on first use.
func StageHistogram(stage string) *Histogram {
	if h, ok := stageHists[stage]; ok {
		return h
	}
	return defaultRegistry.Histogram(stageMetricName,
		"Wall-clock time of one selection pipeline stage execution.",
		nil, Labels{"stage": stage})
}

// ObserveStage records one execution of the named stage.
func ObserveStage(stage string, d time.Duration) {
	StageHistogram(stage).ObserveDuration(d)
}

// StageSpan is one in-flight stage timing started by StartStage.
type StageSpan struct {
	h *Histogram
	t time.Time
}

// StartStage starts timing a stage; Stop records the elapsed time. The
// value form costs nothing to create, so it suits per-request hot paths:
//
//	span := obs.StartStage(obs.StageNOMP)
//	defer span.Stop()
func StartStage(stage string) StageSpan {
	return StageSpan{h: StageHistogram(stage), t: time.Now()}
}

// Stop records the elapsed time since StartStage.
func (s StageSpan) Stop() { s.h.ObserveDuration(time.Since(s.t)) }

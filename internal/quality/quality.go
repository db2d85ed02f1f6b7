// Package quality pins the served selections of a fixed workload. It
// replays a fixed set of select requests through an in-process worker —
// the served pipeline with its feature store, shared regression templates
// and pooled solver scratch — over the three synthetic corpora, and
// records every answer: the selected review IDs per item, the Eq. 1/Eq. 5
// objective, and the shortlist. Every request shape is replayed twice:
// once with the default CompaReSetS+ (Eq. 5) and once with CompaReSetS
// (Eq. 1), so both kinds of cached regression template are pinned.
// QUALITY.json at the repository root holds the committed answers; the
// package test regenerates them and diffs (selections and shortlists
// exactly, floats within RelTol), so an optimization that moves a single
// selection fails the build.
// Regenerate the file with `make quality` only when a change is meant to
// move the answers.
package quality

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"

	"comparesets/internal/core"
	"comparesets/internal/datagen"
	"comparesets/internal/dataset"
	"comparesets/internal/model"
	"comparesets/internal/service"
)

// RelTol is the relative tolerance on objectives and shortlist weights.
const RelTol = 1e-12

// Workload parameters: the corpora of datagen.DefaultConfigs(CorpusSeed),
// targetsPerCategory targets spread evenly over each category's sorted
// target list, every (λ, m) of Lambdas × [MinM, MaxM], and every
// shortlistEvery-th request shortlisting shortlistK items exactly.
const (
	CorpusSeed         = 1
	targetsPerCategory = 6
	MinM, MaxM         = 3, 10
	shortlistEvery     = 4
	shortlistK         = 3
)

// Lambdas are the λ values of the workload.
var Lambdas = []float64{1, 0.5}

// Request is one select request of the workload.
type Request struct {
	Category string  `json:"category"`
	Target   string  `json:"target"`
	M        int     `json:"m"`
	Lambda   float64 `json:"lambda"`
	Mu       float64 `json:"mu"`
	K        int     `json:"k,omitempty"`
	Method   string  `json:"method,omitempty"`
	// Algorithm is empty for the server default, CompaReSetS+.
	Algorithm string `json:"algorithm,omitempty"`
}

// baseAlgorithm is the selector of the workload's second pass.
const baseAlgorithm = "CompaReSetS"

// Item is one item's selected reviews, in served order.
type Item struct {
	ID      string   `json:"id"`
	Reviews []string `json:"reviews"`
}

// Answer is the served answer to one request.
type Answer struct {
	Request         Request `json:"request"`
	Objective       float64 `json:"objective"`
	Items           []Item  `json:"items"`
	Shortlist       []int   `json:"shortlist,omitempty"`
	ShortlistWeight float64 `json:"shortlist_weight,omitempty"`
}

// Corpora synthesizes the workload's corpora, keyed by category.
func Corpora() (map[string]*model.Corpus, error) {
	out := map[string]*model.Corpus{}
	for _, cfg := range datagen.DefaultConfigs(CorpusSeed) {
		c, err := datagen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("quality: synthesizing %s: %w", cfg.Category.Name, err)
		}
		out[c.Category] = c
	}
	return out, nil
}

// Requests lists the workload in replay order: λ outermost, then m, then
// target, so the exact shortlists fall on varied (m, target) pairs. The
// CompaReSetS+ pass comes first; the CompaReSetS pass repeats its shapes.
func Requests(corpora map[string]*model.Corpus) []Request {
	cats := make([]string, 0, len(corpora))
	for cat := range corpora {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	type target struct{ cat, id string }
	var targets []target
	for _, cat := range cats {
		ids := dataset.TargetIDs(corpora[cat])
		for i := 0; i < targetsPerCategory && i < len(ids); i++ {
			targets = append(targets, target{cat, ids[i*len(ids)/targetsPerCategory]})
		}
	}
	var reqs []Request
	for _, lambda := range Lambdas {
		for m := MinM; m <= MaxM; m++ {
			for _, tg := range targets {
				r := Request{Category: tg.cat, Target: tg.id, M: m, Lambda: lambda, Mu: 1}
				if len(reqs)%shortlistEvery == shortlistEvery-1 {
					r.K, r.Method = shortlistK, "exact"
				}
				reqs = append(reqs, r)
			}
		}
	}
	for _, r := range reqs {
		r.Algorithm = baseAlgorithm
		reqs = append(reqs, r)
	}
	return reqs
}

// Run replays the workload through a fresh in-process worker and returns
// its answers in request order.
func Run() ([]Answer, error) {
	corpora, err := Corpora()
	if err != nil {
		return nil, err
	}
	reqs := Requests(corpora)
	h := service.New(corpora, nil).Handler()
	answers := make([]Answer, 0, len(reqs))
	for _, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/select", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("quality: %s: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		var resp service.SelectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return nil, fmt.Errorf("quality: %s: decoding answer: %w", body, err)
		}
		if resp.Optimal != nil || resp.Degraded {
			return nil, fmt.Errorf("quality: %s: answer is not canonical (optimal=%v degraded=%v)", body, resp.Optimal, resp.Degraded)
		}
		a := Answer{Request: r, Objective: resp.Objective, Shortlist: resp.Shortlist, ShortlistWeight: resp.ShortlistWeight}
		for _, it := range resp.Items {
			item := Item{ID: it.ID, Reviews: make([]string, len(it.Reviews))}
			for i, rv := range it.Reviews {
				item.Reviews[i] = rv.ID
			}
			a.Items = append(a.Items, item)
		}
		answers = append(answers, a)
	}
	return answers, nil
}

// Write encodes answers as the QUALITY.json document: one answer per
// line, so a moved selection shows as a one-line diff.
func Write(w io.Writer, answers []Answer) error {
	var b bytes.Buffer
	b.WriteString("{\"answers\": [\n")
	for i, a := range answers {
		line, err := json.Marshal(a)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(answers)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// Read decodes a QUALITY.json document.
func Read(r io.Reader) ([]Answer, error) {
	var doc struct {
		Answers []Answer `json:"answers"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("quality: decoding: %w", err)
	}
	return doc.Answers, nil
}

// Diff lists every way got departs from want: a different request list,
// any differing item or selected review ID or shortlist member, and
// objectives or shortlist weights off by more than RelTol relative.
func Diff(want, got []Answer) []string {
	var out []string
	if len(want) != len(got) {
		out = append(out, fmt.Sprintf("%d answers, want %d", len(got), len(want)))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		w, g := want[i], got[i]
		name := label(i, w.Request)
		if w.Request != g.Request {
			out = append(out, fmt.Sprintf("%s: request %+v, want %+v", name, g.Request, w.Request))
			continue
		}
		if !within(w.Objective, g.Objective) {
			out = append(out, fmt.Sprintf("%s: objective %v, want %v", name, g.Objective, w.Objective))
		}
		if !within(w.ShortlistWeight, g.ShortlistWeight) {
			out = append(out, fmt.Sprintf("%s: shortlist weight %v, want %v", name, g.ShortlistWeight, w.ShortlistWeight))
		}
		if !slices.Equal(w.Shortlist, g.Shortlist) {
			out = append(out, fmt.Sprintf("%s: shortlist %v, want %v", name, g.Shortlist, w.Shortlist))
		}
		if len(w.Items) != len(g.Items) {
			out = append(out, fmt.Sprintf("%s: %d items, want %d", name, len(g.Items), len(w.Items)))
			continue
		}
		for j := range w.Items {
			if w.Items[j].ID != g.Items[j].ID || !slices.Equal(w.Items[j].Reviews, g.Items[j].Reviews) {
				out = append(out, fmt.Sprintf("%s: item %d selected %s %v, want %s %v",
					name, j, g.Items[j].ID, g.Items[j].Reviews, w.Items[j].ID, w.Items[j].Reviews))
			}
		}
	}
	return out
}

// Violations lists every answer that breaks a response invariant: an item
// with more than m reviews, a review ID that is not one of its item's
// reviews or is repeated, or a reported objective that differs by more
// than RelTol relative from the request's objective recomputed from the
// returned sets (core.ObjectiveCompareSets for CompaReSetS answers,
// core.ObjectivePlus otherwise). corpora are the corpora the answers were
// served from.
func Violations(corpora map[string]*model.Corpus, answers []Answer) []string {
	var out []string
	for i, a := range answers {
		r := a.Request
		name := label(i, r)
		c := corpora[r.Category]
		if c == nil {
			out = append(out, fmt.Sprintf("%s: unknown category", name))
			continue
		}
		inst := &model.Instance{Aspects: c.Aspects}
		sets := make([][]*model.Review, 0, len(a.Items))
		for _, item := range a.Items {
			it := c.Items[item.ID]
			if it == nil {
				out = append(out, fmt.Sprintf("%s: unknown item %s", name, item.ID))
				break
			}
			if len(item.Reviews) > r.M {
				out = append(out, fmt.Sprintf("%s: item %s has %d reviews, more than m", name, item.ID, len(item.Reviews)))
			}
			byID := make(map[string]*model.Review, len(it.Reviews))
			for _, rv := range it.Reviews {
				byID[rv.ID] = rv
			}
			set := make([]*model.Review, 0, len(item.Reviews))
			seen := map[string]bool{}
			for _, id := range item.Reviews {
				switch rv := byID[id]; {
				case rv == nil:
					out = append(out, fmt.Sprintf("%s: review %s is not a review of item %s", name, id, item.ID))
				case seen[id]:
					out = append(out, fmt.Sprintf("%s: review %s repeated in item %s", name, id, item.ID))
				default:
					seen[id] = true
					set = append(set, rv)
				}
			}
			inst.Items = append(inst.Items, it)
			sets = append(sets, set)
		}
		if len(inst.Items) != len(a.Items) || len(inst.Items) == 0 {
			continue
		}
		cfg := core.Config{M: r.M, Lambda: r.Lambda, Mu: r.Mu}
		objective := core.ObjectivePlus
		if r.Algorithm == baseAlgorithm {
			objective = core.ObjectiveCompareSets
		}
		if obj := objective(inst, core.NewTargets(inst, cfg), cfg, sets); !within(a.Objective, obj) {
			out = append(out, fmt.Sprintf("%s: objective %v, recomputed %v", name, a.Objective, obj))
		}
	}
	return out
}

// label names answer i of request r in a diff or violation line.
func label(i int, r Request) string {
	alg := r.Algorithm
	if alg == "" {
		alg = "CompaReSetS+"
	}
	return fmt.Sprintf("answer %d (%s %s/%s m=%d λ=%g k=%d)", i, alg, r.Category, r.Target, r.M, r.Lambda, r.K)
}

// within reports |a − b| ≤ RelTol·max(|a|, |b|).
func within(a, b float64) bool {
	return a == b || math.Abs(a-b) <= RelTol*math.Max(math.Abs(a), math.Abs(b))
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"comparesets/internal/model"
	"comparesets/internal/opinion"
)

// mutationBenchCorpus hand-builds an n-item corpus whose first item's
// also-bought list spans every other item, so selections over target p000
// cover the entire corpus and the old whole-epoch write path really did pay
// O(n) feature rebuilds (and O(n²) graph rebuilds) for a one-review delta.
func mutationBenchCorpus(tb testing.TB, n int) *model.Corpus {
	tb.Helper()
	aspects := make([]string, 12)
	for i := range aspects {
		aspects[i] = fmt.Sprintf("aspect%02d", i)
	}
	c := model.NewCorpus("Cellphone", model.NewVocabulary(aspects))
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("p%03d", i)
	}
	for i, id := range ids {
		item := &model.Item{ID: id, Title: "Product " + id}
		for _, other := range ids {
			if other != id {
				item.AlsoBought = append(item.AlsoBought, other)
			}
		}
		for j := 0; j < 8; j++ {
			pol := model.Positive
			if (i+j)%2 == 1 {
				pol = model.Negative
			}
			item.Reviews = append(item.Reviews, &model.Review{
				ID: fmt.Sprintf("%s-r%02d", id, j), ItemID: id, Rating: 1 + (i+j)%5,
				Mentions: []model.Mention{
					{Aspect: j % 12, Polarity: pol, Score: 1},
					{Aspect: (i + j) % 12, Polarity: model.Positive, Score: 1},
				},
			})
		}
		c.Items[id] = item
	}
	return c
}

func appendBody(b *testing.B, id string) []byte {
	b.Helper()
	buf, err := json.Marshal(AppendReviewsBody{Reviews: []*model.Review{{
		ID: id, Rating: 4,
		Mentions: []model.Mention{{Aspect: 3, Polarity: model.Positive, Score: 1}},
	}}})
	if err != nil {
		b.Fatal(err)
	}
	return buf
}

// benchMutateAppend measures the incremental write path: one HTTP append
// per iteration, which clones the corpus map, refills exactly one item's
// feature columns, and drops one item's regression templates. Cost is O(1) in
// the corpus's review count (plus the O(n) map clone). Each run of n−1
// appends gives every item but the target one review; the seed corpus is
// then restored, untimed, so the cost per op does not grow with b.N.
func benchMutateAppend(b *testing.B, n int) {
	seed := mutationBenchCorpus(b, n)
	s := New(map[string]*model.Corpus{"Cellphone": seed}, nil)
	h := s.Handler()
	precompute(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(n-1) == 0 {
			b.StopTimer()
			s.AddCorpus("Cellphone", seed)
			precompute(s)
			b.StartTimer()
		}
		item := fmt.Sprintf("p%03d", 1+i%(n-1))
		r := httptest.NewRequest(http.MethodPost,
			"/api/v1/corpora/Cellphone/items/"+item+"/reviews",
			bytes.NewReader(appendBody(b, fmt.Sprintf("bench-%d", i))))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// benchMutateRebuild measures what the same one-review delta cost before
// the mutation API existed: a whole-epoch AddCorpus flush followed by the
// feature precompute needed to restore a servable warm state. This is a
// lower bound on the old cost — the flush also discarded every cached
// regression problem and cached response, whose rebuild on the next
// selects is not counted here. Like benchMutateAppend, it starts over
// from the seed corpus every n−1 appends.
func benchMutateRebuild(b *testing.B, n int) {
	seed := mutationBenchCorpus(b, n)
	s := New(map[string]*model.Corpus{"Cellphone": seed}, nil)
	precompute(s)
	c := seed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(n-1) == 0 {
			c = seed
		}
		item := fmt.Sprintf("p%03d", 1+i%(n-1))
		next := c.Clone()
		if _, err := next.AppendReviews(item, &model.Review{
			ID: fmt.Sprintf("bench-%d", i), Rating: 4,
			Mentions: []model.Mention{{Aspect: 3, Polarity: model.Positive, Score: 1}},
		}); err != nil {
			b.Fatal(err)
		}
		c = next
		s.AddCorpus("Cellphone", next)
		precompute(s)
	}
}

// precompute fills every feature column of the server's corpus.
func precompute(s *Server) {
	s.mu.RLock()
	fs := s.feats["Cellphone"]
	s.mu.RUnlock()
	fs.Precompute(opinion.Binary{})
}

func BenchmarkMutateAppend64(b *testing.B)   { benchMutateAppend(b, 64) }
func BenchmarkMutateAppend256(b *testing.B)  { benchMutateAppend(b, 256) }
func BenchmarkMutateRebuild64(b *testing.B)  { benchMutateRebuild(b, 64) }
func BenchmarkMutateRebuild256(b *testing.B) { benchMutateRebuild(b, 256) }

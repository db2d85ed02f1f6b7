package model

import (
	"encoding/json"
	"math"
	"testing"
)

// TestReviewMarshalAppendParity pins the JSON bytes of a Review to those
// the former hand-rolled Review.MarshalAppend encoder wrote: review logs on
// disk hold these bytes, so json.Marshal must keep producing them.
func TestReviewMarshalAppendParity(t *testing.T) {
	cases := []struct {
		r    Review
		want string
	}{
		{Review{}, `{"id":"","item_id":"","reviewer":"","rating":0,"text":"","mentions":null}`},
		{
			Review{ID: "r1", ItemID: "item-1", Reviewer: "alice", Rating: 5, Text: "great phone"},
			`{"id":"r1","item_id":"item-1","reviewer":"alice","rating":5,"text":"great phone","mentions":null}`,
		},
		{
			Review{
				ID: "r2", ItemID: "item <2> & co", Reviewer: "böb \"the\" builder", Rating: -3,
				Text:     "controls \t\n and unicode 日本語 and invalid \xff utf8",
				Mentions: []Mention{},
			},
			`{"id":"r2","item_id":"item \u003c2\u003e \u0026 co","reviewer":"böb \"the\" builder","rating":-3,"text":"controls \t\n and unicode 日本語 and invalid \ufffd utf8","mentions":[]}`,
		},
		{
			Review{
				ID: "r3", ItemID: "i",
				Mentions: []Mention{
					{Aspect: 0, Polarity: 1, Score: 0},
					{Aspect: 7, Polarity: -1, Score: 0.125},
					{Aspect: 42, Polarity: 0, Score: 1e-9},
					{Aspect: 3, Polarity: 1, Score: 3.5e21},
					{Aspect: 3, Polarity: 1, Score: math.Copysign(0, -1)},
				},
			},
			`{"id":"r3","item_id":"i","reviewer":"","rating":0,"text":"","mentions":[{"aspect":0,"polarity":1,"score":0},{"aspect":7,"polarity":-1,"score":0.125},{"aspect":42,"polarity":0,"score":1e-9},{"aspect":3,"polarity":1,"score":3.5e+21},{"aspect":3,"polarity":1,"score":-0}]}`,
		},
	}
	for _, c := range cases {
		got, err := json.Marshal(&c.r)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", c.r.ID, err)
		}
		if string(got) != c.want {
			t.Errorf("review %q:\n got %s\nwant %s", c.r.ID, got, c.want)
		}
	}
}

package service

import (
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"comparesets/internal/metrics"
)

// selectResponseVariants exercises every omitempty combination the handler
// can produce, plus the nil-slice null encodings, HTML and control-character
// escapes, invalid UTF-8, U+2028, and e-notation floats.
func selectResponseVariants() []*SelectResponse {
	optFalse := false
	optTrue := true
	return []*SelectResponse{
		{}, // all zero: nil items encodes as null
		{
			Algorithm: "CompaReSetS+",
			Objective: 1.75,
			Items:     []SelectedItem{},
			ElapsedMS: 0.123,
		},
		{
			Algorithm: "CompaReSetS+",
			Objective: 2.0 / 3.0,
			Items: []SelectedItem{
				{
					ID: "target-1", Title: "Alpha <Phone> & Co", IsTarget: true,
					Reviews: []SelectedReview{
						{ID: "r1", Rating: 5, Text: "great \"camera\"\nlong battery"},
						{ID: "r2", Rating: 1, Text: "controls \t and unicode 日本語 and invalid \xff"},
					},
				},
				{
					ID: "comp-1", Title: "Beta", IsTarget: false,
					Reviews: nil, // null under the non-omitempty tag
					Summary: []string{"summary line <1>", "summary & line 2"},
				},
			},
			ElapsedMS: 12.5,
		},
		{
			Algorithm:       "CompaReSetS+",
			Objective:       3.25,
			Items:           []SelectedItem{{ID: "t", Title: "T", IsTarget: true, Reviews: []SelectedReview{}}},
			Shortlist:       []int{0, 3, 7},
			ShortlistWeight: 0.875,
			Optimal:         &optFalse,
			Degraded:        true,
			Explanations:    []string{"A beats B on camera", "B has \u2028 separator"},
			Metrics: &metrics.InstanceMetrics{
				AspectCoverage:     0.5,
				OpinionCoverage:    1e-9,
				Redundancy:         0.25,
				Representativeness: 1,
			},
			ElapsedMS: 1e-7, // exercises e-notation cleanup
		},
		{
			Algorithm: "greedy",
			Objective: math.MaxFloat64,
			Items:     []SelectedItem{},
			Optimal:   &optTrue,
			ElapsedMS: 3.5e21,
		},
	}
}

// The golden bodies below pin the wire format clients, cached payloads and
// the degradeBody splice rely on. They were recorded from the server's
// responses before this encoder existed and must not move.
var selectGolden = []string{
	`{"algorithm":"","objective":0,"items":null,"elapsed_ms":0}`,
	`{"algorithm":"CompaReSetS+","objective":1.75,"items":[],"elapsed_ms":0.123}`,
	`{"algorithm":"CompaReSetS+","objective":0.6666666666666666,"items":[{"id":"target-1","title":"Alpha \u003cPhone\u003e \u0026 Co","is_target":true,"reviews":[{"id":"r1","rating":5,"text":"great \"camera\"\nlong battery"},{"id":"r2","rating":1,"text":"controls \t and unicode 日本語 and invalid \ufffd"}]},{"id":"comp-1","title":"Beta","is_target":false,"reviews":null,"summary":["summary line \u003c1\u003e","summary \u0026 line 2"]}],"elapsed_ms":12.5}`,
	`{"algorithm":"CompaReSetS+","objective":3.25,"items":[{"id":"t","title":"T","is_target":true,"reviews":[]}],"shortlist":[0,3,7],"shortlist_weight":0.875,"optimal":false,"degraded":true,"explanations":["A beats B on camera","B has \u2028 separator"],"metrics":{"AspectCoverage":0.5,"OpinionCoverage":1e-9,"Redundancy":0.25,"Representativeness":1},"elapsed_ms":1e-7}`,
	`{"algorithm":"greedy","objective":1.7976931348623157e+308,"items":[],"optimal":true,"elapsed_ms":3.5e+21}`,
}

func quietServer() *Server {
	return NewWithOptions(nil, log.New(io.Discard, "", 0), Options{})
}

// written returns what writeJSON puts on the wire for v.
func written(s *Server, status int, v any) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.writeJSON(rec, status, v)
	return rec
}

func TestSelectResponseGolden(t *testing.T) {
	s := quietServer()
	variants := selectResponseVariants()
	if len(variants) != len(selectGolden) {
		t.Fatalf("%d variants, %d golden bodies", len(variants), len(selectGolden))
	}
	for i, resp := range variants {
		want := selectGolden[i] + "\n"
		if got := written(s, http.StatusOK, resp).Body.String(); got != want {
			t.Errorf("variant %d:\n got %s\nwant %s", i, got, want)
		}
		payload, err := s.encodeJSON(resp)
		if err != nil {
			t.Fatalf("variant %d: encodeJSON: %v", i, err)
		}
		if string(payload) != want {
			t.Errorf("variant %d: flight payload differs from the written body:\n got %s\nwant %s", i, payload, want)
		}
	}
}

func TestErrorResponseGolden(t *testing.T) {
	s := quietServer()
	cases := []struct {
		env  ErrorResponse
		want string
	}{
		{
			ErrorResponse{Error: ErrorBody{Code: CodeInternal, Message: "internal server error"}},
			`{"error":{"code":"internal","message":"internal server error"}}`,
		},
		{
			ErrorResponse{Error: ErrorBody{Code: CodeUnprocessable, Message: "m must be at least 1, got -2", Field: "m"}},
			`{"error":{"code":"unprocessable","message":"m must be at least 1, got -2","field":"m"}}`,
		},
		{
			ErrorResponse{Error: ErrorBody{Code: CodeBadRequest, Message: "weird <chars> & \"quotes\" \xff"}},
			`{"error":{"code":"bad_request","message":"weird \u003cchars\u003e \u0026 \"quotes\" \ufffd"}}`,
		},
	}
	for i, c := range cases {
		if got := written(s, http.StatusBadRequest, c.env).Body.String(); got != c.want+"\n" {
			t.Errorf("envelope %d:\n got %s\nwant %s", i, got, c.want)
		}
	}
}

func TestMutationReceiptGolden(t *testing.T) {
	s := quietServer()
	cases := []struct {
		receipt MutationReceipt
		want    string
	}{
		{
			MutationReceipt{
				Kind: "append", Category: "cell_phones", Item: "item-1",
				Reviews: []string{"r1", "r2"}, Epoch: "3f9a", Generation: 18446744073709551615,
				AffectedItems: []string{"item-1"},
				Invalidation: InvalidationScope{
					Scope: "item", ProblemsDropped: 4, ColumnsComputed: 2, ColumnsReused: 14,
				},
				ElapsedMS: 0.875,
			},
			`{"kind":"append","category":"cell_phones","item":"item-1","reviews":["r1","r2"],"epoch":"3f9a","generation":18446744073709551615,"affected_items":["item-1"],"invalidation":{"scope":"item","problems_dropped":4,"columns_computed":2,"columns_reused":14},"elapsed_ms":0.875}`,
		},
		{
			MutationReceipt{
				Kind: "remove", Category: "cat <&>", Item: "item \xff",
				Reviews: []string{}, AffectedItems: nil,
				Invalidation: InvalidationScope{Scope: "item"},
				ElapsedMS:    123456.789,
			},
			`{"kind":"remove","category":"cat \u003c\u0026\u003e","item":"item \ufffd","reviews":[],"epoch":"","generation":0,"affected_items":null,"invalidation":{"scope":"item","problems_dropped":0,"columns_computed":0,"columns_reused":0},"elapsed_ms":123456.789}`,
		},
	}
	for i, c := range cases {
		if got := written(s, http.StatusOK, c.receipt).Body.String(); got != c.want+"\n" {
			t.Errorf("receipt %d:\n got %s\nwant %s", i, got, c.want)
		}
	}
}

// TestDegradeBodySplice guards the degradeBody assumption the encoding
// must preserve: the canonical payload starts {"algorithm": so the
// degraded flag can be spliced right after the opening brace.
func TestDegradeBodySplice(t *testing.T) {
	resp := &SelectResponse{Algorithm: "CompaReSetS+", Items: []SelectedItem{}, ElapsedMS: 1}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	degraded := degradeBody(append(body, '\n'))
	const want = `{"degraded":true,"algorithm":"CompaReSetS+","objective":0,"items":[],"elapsed_ms":1}` + "\n"
	if string(degraded) != want {
		t.Fatalf("degraded body:\n got %s\nwant %s", degraded, want)
	}
	var round SelectResponse
	if err := json.Unmarshal(degraded, &round); err != nil {
		t.Fatalf("degraded body does not parse: %v\n%s", err, degraded)
	}
	if !round.Degraded {
		t.Fatalf("degraded flag missing: %s", degraded)
	}
}

// A response json.Marshal rejects (NaN objective) must not reach the wire
// half-written: encodeJSON reports the error, and writeJSON answers the
// 500 internal envelope in its place.
func TestNonFiniteResponseAnswersInternal(t *testing.T) {
	s := quietServer()
	resp := &SelectResponse{Algorithm: "CompaReSetS+", Objective: math.NaN(), Items: []SelectedItem{}}
	if payload, err := s.encodeJSON(resp); err == nil {
		t.Fatalf("encodeJSON of a NaN objective succeeded: %s", payload)
	}
	rec := written(s, http.StatusOK, resp)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	const want = `{"error":{"code":"internal","message":"internal server error"}}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("body:\n got %s\nwant %s", got, want)
	}
}

package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"comparesets/internal/model"
)

// The golden payloads below pin the record bytes logs already on disk
// hold; they were recorded from the store's output before it encoded with
// encoding/json and must not move. A review record starts {"id": and a
// mutation envelope starts {"op":, which is what decodeRecord sniffs.
const (
	goldenReviewRecord = `{"id":"r1","item_id":"item \u003c1\u003e","reviewer":"böb \"the\" builder","rating":4,"text":"updated text\nwith newline","mentions":[{"aspect":2,"polarity":1,"score":-0.75},{"aspect":7,"polarity":0,"score":1e-9},{"aspect":3,"polarity":2,"score":-0}]}`
	goldenUpdateRecord = `{"op":"update","review":` + goldenReviewRecord + `}`
	goldenRemoveRecord = `{"op":"remove","item_id":"item \u003c1\u003e","review_id":"r-9"}`
)

func goldenReview() *model.Review {
	return &model.Review{
		ID: "r1", ItemID: "item <1>", Reviewer: `böb "the" builder`, Rating: 4,
		Text: "updated text\nwith newline",
		Mentions: []model.Mention{
			{Aspect: 2, Polarity: model.Negative, Score: -0.75},
			{Aspect: 7, Polarity: model.Positive, Score: 1e-9},
			{Aspect: 3, Polarity: model.Neutral, Score: math.Copysign(0, -1)},
		},
	}
}

// logPayloads splits a legacy-format (headerless) log into its record
// payloads.
func logPayloads(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(data) > 0 {
		if len(data) < headerSize {
			t.Fatalf("torn frame header: %d bytes left", len(data))
		}
		n := int(binary.BigEndian.Uint32(data[:4]))
		data = data[headerSize:]
		if len(data) < n {
			t.Fatalf("torn payload: want %d bytes, %d left", n, len(data))
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

func TestRecordPayloadsGolden(t *testing.T) {
	s, path := tempStore(t)
	r := goldenReview()
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendUpdate(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&model.Review{ID: "r-9", ItemID: "item <1>"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRemove("item <1>", "r-9"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := logPayloads(t, data)
	if len(payloads) != 4 {
		t.Fatalf("%d records, want 4", len(payloads))
	}
	cases := []struct {
		payload, want []byte
		op            string
	}{
		{payloads[0], []byte(goldenReviewRecord), ""},
		{payloads[1], []byte(goldenUpdateRecord), opUpdate},
		{payloads[3], []byte(goldenRemoveRecord), opRemove},
	}
	for _, c := range cases {
		if !bytes.Equal(c.payload, c.want) {
			t.Errorf("record:\n got %s\nwant %s", c.payload, c.want)
		}
		if isEnvelope := bytes.HasPrefix(c.payload, envelopePrefix); isEnvelope != (c.op != "") {
			t.Errorf("record %s: envelope prefix %v, want %v", c.payload, isEnvelope, c.op != "")
		}
		if c.op == "" && !bytes.HasPrefix(c.payload, []byte(`{"id":`)) {
			t.Errorf("review record %s does not start with {\"id\":", c.payload)
		}
		op, rec, itemID, reviewID, err := decodeRecord(c.payload)
		if err != nil {
			t.Fatalf("decodeRecord(%s): %v", c.payload, err)
		}
		if op != c.op {
			t.Errorf("decodeRecord op = %q, want %q", op, c.op)
		}
		if c.op == opRemove {
			if rec != nil || itemID != "item <1>" || reviewID != "r-9" {
				t.Errorf("remove decoded as (%v, %q, %q)", rec, itemID, reviewID)
			}
			continue
		}
		if !reflect.DeepEqual(rec, r) || itemID != r.ItemID || reviewID != r.ID {
			t.Errorf("review did not round-trip:\n got %+v\nwant %+v", rec, r)
		}
	}
}

// A review json.Marshal rejects (NaN mention score) fails the write and
// leaves the log and the live view untouched.
func TestAppendNonFiniteScoreWritesNothing(t *testing.T) {
	s, path := tempStore(t)
	if err := s.Append(review("r1", "p1", 0)); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := review("r2", "p1", 1)
	bad.Mentions[0].Score = math.NaN()
	if err := s.Append(bad); err == nil {
		t.Fatal("Append of a NaN mention score succeeded")
	}
	update := review("r1", "p1", 1)
	update.Mentions[0].Score = math.Inf(1)
	if err := s.AppendUpdate(update); err == nil {
		t.Fatal("AppendUpdate of an infinite mention score succeeded")
	}
	if got := s.Count(); got != 1 {
		t.Errorf("Count() = %d after failed writes, want 1", got)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Errorf("log grew from %d to %d bytes on failed writes", before.Size(), after.Size())
	}
}

// TestEnvelopeMarshalParity pins the update and remove envelope bytes to
// those the former hand-rolled envelope encoder wrote: logs written by it
// must replay identically, and the envelopePrefix sniff depends on "op"
// coming first.
func TestEnvelopeMarshalParity(t *testing.T) {
	cases := []struct {
		env  logEnvelope
		want string
	}{
		{logEnvelope{Op: opRemove, ItemID: "item-1", ReviewID: "r-9"}, `{"op":"remove","item_id":"item-1","review_id":"r-9"}`},
		{logEnvelope{Op: opRemove}, `{"op":"remove"}`},
		{
			logEnvelope{Op: opRemove, ItemID: "tricky <id> & \"quotes\"", ReviewID: "\xffbad"},
			`{"op":"remove","item_id":"tricky \u003cid\u003e \u0026 \"quotes\"","review_id":"\ufffdbad"}`,
		},
		{
			logEnvelope{Op: opUpdate, Review: &model.Review{
				ID: "r1", ItemID: "item-1", Reviewer: "alice", Rating: 4,
				Text: "updated text\nwith newline",
				Mentions: []model.Mention{
					{Aspect: 2, Polarity: model.Negative, Score: -0.75},
				},
			}},
			`{"op":"update","review":{"id":"r1","item_id":"item-1","reviewer":"alice","rating":4,"text":"updated text\nwith newline","mentions":[{"aspect":2,"polarity":1,"score":-0.75}]}}`,
		},
		{
			logEnvelope{Op: opUpdate, Review: &model.Review{ID: "r2", ItemID: "i"}},
			`{"op":"update","review":{"id":"r2","item_id":"i","reviewer":"","rating":0,"text":"","mentions":null}}`,
		},
	}
	for i, c := range cases {
		got, err := json.Marshal(c.env)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if string(got) != c.want {
			t.Errorf("envelope %d:\n got %s\nwant %s", i, got, c.want)
		}
		if !bytes.HasPrefix(got, envelopePrefix) {
			t.Errorf("envelope %d: %s lacks the envelope prefix", i, got)
		}
	}
}

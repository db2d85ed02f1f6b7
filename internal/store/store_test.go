package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"comparesets/internal/datagen"
	"comparesets/internal/lexicon"
	"comparesets/internal/model"
)

func tempStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reviews.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func review(id, item string, aspects ...int) *model.Review {
	r := &model.Review{ID: id, ItemID: item, Reviewer: "u1", Rating: 4, Text: "text of " + id}
	for _, a := range aspects {
		r.Mentions = append(r.Mentions, model.Mention{Aspect: a, Polarity: model.Positive, Score: 1})
	}
	return r
}

func TestAppendAndFetch(t *testing.T) {
	s, _ := tempStore(t)
	if err := s.Append(review("r1", "p1", 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(review("r2", "p1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(review("r3", "p2", 0)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ItemReviews("p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "r1" || got[1].ID != "r2" {
		t.Errorf("p1 reviews = %+v", got)
	}
	if got[0].Text != "text of r1" || len(got[0].Mentions) != 2 {
		t.Errorf("record did not round trip: %+v", got[0])
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if empty, _ := s.ItemReviews("ghost"); len(empty) != 0 {
		t.Errorf("ghost reviews = %v", empty)
	}
}

func TestAspectIndex(t *testing.T) {
	s, _ := tempStore(t)
	s.Append(review("r1", "p1", 0))
	s.Append(review("r2", "p2", 0))
	s.Append(review("r3", "p2", 0)) // same item, same aspect: dedup
	s.Append(review("r4", "p3", 1))
	if got := s.ItemsWithAspect(0); !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Errorf("aspect 0 items = %v", got)
	}
	if got := s.ItemsWithAspect(1); !reflect.DeepEqual(got, []string{"p3"}) {
		t.Errorf("aspect 1 items = %v", got)
	}
	if got := s.ItemsWithAspect(9); len(got) != 0 {
		t.Errorf("aspect 9 items = %v", got)
	}
}

func TestReopenRebuildsIndexes(t *testing.T) {
	s, path := tempStore(t)
	s.Append(review("r1", "p1", 0))
	s.Append(review("r2", "p2", 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 2 {
		t.Errorf("Count after reopen = %d", re.Count())
	}
	if got := re.Items(); !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Errorf("Items = %v", got)
	}
	got, err := re.ItemReviews("p2")
	if err != nil || len(got) != 1 || got[0].ID != "r2" {
		t.Errorf("p2 = %+v err = %v", got, err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	s, path := tempStore(t)
	s.Append(review("r1", "p1", 0))
	s.Append(review("r2", "p1", 1))
	s.Close()

	// Simulate a crash mid-append: chop bytes off the last record.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 1 {
		t.Fatalf("Count after torn tail = %d, want 1", re.Count())
	}
	got, _ := re.ItemReviews("p1")
	if len(got) != 1 || got[0].ID != "r1" {
		t.Errorf("surviving reviews = %+v", got)
	}
	// The torn bytes must be gone so new appends start clean.
	if err := re.Append(review("r3", "p1", 2)); err != nil {
		t.Fatal(err)
	}
	got, _ = re.ItemReviews("p1")
	if len(got) != 2 || got[1].ID != "r3" {
		t.Errorf("after repair append: %+v", got)
	}
}

func TestCorruptTailChecksumDropped(t *testing.T) {
	s, path := tempStore(t)
	s.Append(review("r1", "p1", 0))
	s.Append(review("r2", "p1", 0))
	s.Close()

	// Flip one payload byte of the LAST record: checksum fails, record is
	// treated as a torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count() != 1 {
		t.Errorf("Count = %d, want 1 (corrupt tail dropped)", re.Count())
	}
}

func TestValidCRCBadJSONRecoversPrefix(t *testing.T) {
	// A record whose checksum verifies but whose payload is not JSON is
	// still corruption: Open must survive it, keep everything before it,
	// and report the drop instead of failing the whole log.
	path := filepath.Join(t.TempDir(), "reviews.log")
	payload := []byte("this is not json")
	var header [headerSize]byte
	binary.BigEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	if err := os.WriteFile(path, append(header[:], payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open = %v, want recovery", err)
	}
	defer s.Close()
	if s.Count() != 0 {
		t.Errorf("Count = %d, want 0", s.Count())
	}
	rec := s.Recovery()
	if rec.DroppedRecords != 1 || rec.DroppedBytes != int64(headerSize+len(payload)) {
		t.Errorf("Recovery = %+v", rec)
	}
}

func TestReadAtDetectsPostOpenCorruption(t *testing.T) {
	// Bit rot after indexing: ItemReviews must fail with ErrCorruptRecord
	// rather than return garbage.
	s, path := tempStore(t)
	s.Append(review("r1", "p1", 0))
	s.Sync()
	// Flip a payload byte in place while the store is open.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ItemReviews("p1"); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("err = %v, want ErrCorruptRecord", err)
	}
}

func TestItemReviewsInterleavedKeepsAppendOrder(t *testing.T) {
	// Interleave three items so every record of an item is separated by
	// foreign records: the batch reader must discard the gaps and still
	// return each item's reviews in append order.
	s, _ := tempStore(t)
	const rounds = 25
	for i := 0; i < rounds; i++ {
		for p := 0; p < 3; p++ {
			item := fmt.Sprintf("p%d", p)
			if err := s.Append(review(fmt.Sprintf("%s-r%03d", item, i), item, i%4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < 3; p++ {
		item := fmt.Sprintf("p%d", p)
		rs, err := s.ItemReviews(item)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != rounds {
			t.Fatalf("%s: %d reviews, want %d", item, len(rs), rounds)
		}
		for i, r := range rs {
			if want := fmt.Sprintf("%s-r%03d", item, i); r.ID != want {
				t.Fatalf("%s[%d] = %s, want %s", item, i, r.ID, want)
			}
		}
	}
}

// TestItemReviewsStraddlingRecords: records larger than the batch reader's
// read-ahead window decode intact, in append order, interleaved with small
// records of another item.
func TestItemReviewsStraddlingRecords(t *testing.T) {
	s, _ := tempStore(t)
	textLen := itemReviewsBufferSize * 3 / 2
	for i := 0; i < 6; i++ {
		big := review(fmt.Sprintf("big-r%d", i), "big", i%4)
		big.Text = strings.Repeat(string(rune('a'+i)), textLen)
		if err := s.Append(big); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(review(fmt.Sprintf("small-r%d", i), "small")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.ItemReviews("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("got %d reviews, want 6", len(got))
	}
	for i, r := range got {
		if want := strings.Repeat(string(rune('a'+i)), textLen); r.ID != fmt.Sprintf("big-r%d", i) || r.Text != want {
			t.Fatalf("review %d: id %s, text length %d (want %d)", i, r.ID, len(r.Text), textLen)
		}
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	s, _ := tempStore(t)
	big := review("r1", "p1", 0)
	big.Text = string(make([]byte, MaxRecordSize+1))
	if err := s.Append(big); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestClosedOperationsFail(t *testing.T) {
	s, _ := tempStore(t)
	s.Close()
	if err := s.Append(review("r", "p", 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Append err = %v", err)
	}
	if _, err := s.ItemReviews("p"); !errors.Is(err, ErrClosed) {
		t.Errorf("ItemReviews err = %v", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close err = %v", err)
	}
}

func TestAppendCorpusAndServeInstances(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{
		Category: lexicon.Toy, Products: 15, Reviewers: 25,
		MeanReviews: 6, MeanAlsoBought: 3, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := tempStore(t)
	if err := s.AppendCorpus(c); err != nil {
		t.Fatal(err)
	}
	if s.Count() != c.NumReviews() {
		t.Fatalf("Count = %d, want %d", s.Count(), c.NumReviews())
	}
	for _, id := range c.ItemIDs() {
		got, err := s.ItemReviews(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c.Items[id].Reviews) {
			t.Errorf("item %s: %d reviews, want %d", id, len(got), len(c.Items[id].Reviews))
		}
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	s, _ := tempStore(t)
	for i := 0; i < 20; i++ {
		s.Append(review(idStr(i), "p1", i%3))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w == 0 {
					if err := s.Append(review(idStr(100+i), "p2", 1)); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if _, err := s.ItemReviews("p1"); err != nil {
					t.Error(err)
					return
				}
				s.ItemsWithAspect(1)
				s.Count()
			}
		}(w)
	}
	wg.Wait()
	got, _ := s.ItemReviews("p2")
	if len(got) != 20 {
		t.Errorf("p2 reviews = %d", len(got))
	}
}

func idStr(i int) string { return "r" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

func TestOpenBadDirectory(t *testing.T) {
	if _, err := Open(filepath.Join(string(os.PathSeparator), "no", "such", "dir", "x.log")); err == nil {
		t.Error("expected error")
	}
}

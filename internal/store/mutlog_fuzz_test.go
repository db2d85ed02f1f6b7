package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCSLGAppend drives a fuzz-chosen sequence of append/update/remove
// records into a log, crash-truncates it at a fuzz-chosen point, and
// requires the reopen to reconstruct exactly the live view of the surviving
// record prefix — mutations must never cost durability of earlier records.
func FuzzCSLGAppend(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2}, uint(1<<20))
	f.Add([]byte{0, 0, 1, 2, 2, 1}, uint(40))
	f.Add([]byte{0, 2}, uint(0))
	f.Add([]byte{0, 1, 1, 1}, uint(60))

	f.Fuzz(func(t *testing.T, ops []byte, keep uint) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		path := filepath.Join(t.TempDir(), "fuzz.log")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}

		// Apply the op sequence, remembering the file size after each record
		// so we can map a truncation point back to the surviving prefix.
		type state struct {
			size    int64
			ratings map[string]int // live review ID -> rating
		}
		live := map[string]int{}
		snapshot := func() map[string]int {
			m := make(map[string]int, len(live))
			for k, v := range live {
				m[k] = v
			}
			return m
		}
		states := []state{{size: s.size, ratings: snapshot()}}
		nextID := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // append a fresh review
				id := fmt.Sprintf("r%d", nextID)
				nextID++
				if err := s.Append(rev("p1", id, 1)); err != nil {
					t.Fatal(err)
				}
				live[id] = 1
			case 1: // update the oldest live review
				id, ok := anyLive(live)
				if !ok {
					continue
				}
				if err := s.AppendUpdate(rev("p1", id, live[id]+1)); err != nil {
					t.Fatal(err)
				}
				live[id]++
			case 2: // remove the oldest live review
				id, ok := anyLive(live)
				if !ok {
					continue
				}
				if err := s.AppendRemove("p1", id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}
			states = append(states, state{size: s.size, ratings: snapshot()})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Crash: truncate the file to an arbitrary length.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int(keep) < len(data) {
			data = data[:keep]
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// The surviving prefix is the last state whose size fits in the file.
		want := states[0].ratings
		for _, st := range states {
			if st.size <= int64(len(data)) {
				want = st.ratings
			}
		}

		s2, err := Open(path)
		if err != nil {
			t.Fatalf("Open after truncation: %v", err)
		}
		defer s2.Close()
		if s2.Count() != len(want) {
			t.Fatalf("Count = %d, want %d live reviews", s2.Count(), len(want))
		}
		if len(want) > 0 {
			revs, err := s2.ItemReviews("p1")
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, r := range revs {
				got[r.ID] = r.Rating
			}
			for id, rating := range want {
				if got[id] != rating {
					t.Fatalf("review %s: rating %d, want %d (live=%v)", id, got[id], rating, got)
				}
			}
		}
		// The recovered log accepts further mutations.
		if err := s2.Append(rev("p1", "post", 9)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := s2.AppendRemove("p1", "post"); err != nil {
			t.Fatalf("remove after recovery: %v", err)
		}
	})
}

// anyLive returns the lexically smallest live review ID, giving the fuzz
// body a deterministic pick.
func anyLive(live map[string]int) (string, bool) {
	best, ok := "", false
	for id := range live {
		if !ok || id < best {
			best, ok = id, true
		}
	}
	return best, ok
}

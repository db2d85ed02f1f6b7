// Mutation records: the CSLG log's delta write path.
//
// The original log knew a single record type — a JSON-encoded review,
// meaning "append". Incremental corpus mutation adds two more, carried in a
// small JSON envelope whose first field is always "op":
//
//	{"op":"update","review":{...}}              replace the review in place
//	{"op":"remove","item_id":"…","review_id":"…"}  delete the review
//
// Plain review payloads keep meaning "append", byte-identical to every log
// written before mutations existed: model.Review marshals with "id" first,
// so a record beginning with {"op": is unambiguously an envelope and
// everything else replays as a legacy append. All three record types share
// the length+CRC framing, so the recovery scan (torn tails, bit flips,
// truncate-to-last-good-record) covers mutation records for free — a torn
// update simply truncates back to the pre-update state, never corrupting
// the prefix.
//
// The in-memory indexes replay mutations into a live view: byItem holds the
// record offsets of each item's current reviews (an update swaps one offset,
// a remove deletes one), so ItemReviews always materializes post-mutation
// state without any log rewrite or compaction. The aspect index stays
// append-monotone — it answers "which items ever discussed this aspect",
// and pruning it on remove would require re-reading every remaining record.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"comparesets/internal/model"
)

// Mutation-envelope op names.
const (
	opUpdate = "update"
	opRemove = "remove"
)

// envelopePrefix distinguishes mutation envelopes from legacy review
// payloads; json.Marshal writes struct fields in declaration order, so
// logEnvelope encodes "op" first and model.Review "id" first, and the
// prefix test is exact for records this package wrote.
// TestRecordPayloadsGolden pins both record shapes.
var envelopePrefix = []byte(`{"op":`)

// logEnvelope is the payload of an update or remove record. Field order
// matters: "op" must come first so envelopePrefix can sniff record types
// without a speculative decode.
type logEnvelope struct {
	Op       string        `json:"op"`
	Review   *model.Review `json:"review,omitempty"`
	ItemID   string        `json:"item_id,omitempty"`
	ReviewID string        `json:"review_id,omitempty"`
}

// decodeRecord turns one record payload into its review (append/update) or
// tombstone coordinates (remove, review == nil).
func decodeRecord(payload []byte) (op string, rec *model.Review, itemID, reviewID string, err error) {
	if bytes.HasPrefix(payload, envelopePrefix) {
		var env logEnvelope
		if err := json.Unmarshal(payload, &env); err != nil {
			return "", nil, "", "", err
		}
		switch env.Op {
		case opUpdate:
			if env.Review == nil {
				return "", nil, "", "", fmt.Errorf("update record without review")
			}
			return opUpdate, env.Review, env.Review.ItemID, env.Review.ID, nil
		case opRemove:
			return opRemove, nil, env.ItemID, env.ReviewID, nil
		default:
			return "", nil, "", "", fmt.Errorf("unknown record op %q", env.Op)
		}
	}
	var r model.Review
	if err := json.Unmarshal(payload, &r); err != nil {
		return "", nil, "", "", err
	}
	return "", &r, r.ItemID, r.ID, nil
}

// writeRecord frames and appends one payload under the write lock (held by
// the caller), returning the record's offset.
func (s *Store) writeRecord(payload []byte) (int64, error) {
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("store: record exceeds max record size (%d bytes)", len(payload))
	}
	var header [headerSize]byte
	binary.BigEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	if _, err := s.f.WriteAt(header[:], s.size); err != nil {
		return 0, err
	}
	if _, err := s.f.WriteAt(payload, s.size+headerSize); err != nil {
		return 0, err
	}
	offset := s.size
	s.size += headerSize + int64(len(payload))
	return offset, nil
}

// livePos returns the index of reviewID in the item's live review list, or
// -1. Items hold tens of reviews, so the linear walk beats maintaining a
// per-review position map through every remove.
func (s *Store) livePos(itemID, reviewID string) int {
	for i, id := range s.idsByItem[itemID] {
		if id == reviewID {
			return i
		}
	}
	return -1
}

// applyAppend replays an append into the live indexes. aspectSeen is the
// scan-time dedup accelerator; nil (runtime) falls back to a postings scan.
func (s *Store) applyAppend(rec *model.Review, offset int64, aspectSeen map[int]map[string]bool) {
	s.byItem[rec.ItemID] = append(s.byItem[rec.ItemID], offset)
	s.idsByItem[rec.ItemID] = append(s.idsByItem[rec.ItemID], rec.ID)
	s.count++
	s.indexAspects(rec, aspectSeen)
}

// applyUpdate replays an update: the live offset of the review is swapped
// for the new record's. Unknown references are a no-op so that replaying a
// foreign or hand-edited log can never fail the open.
func (s *Store) applyUpdate(rec *model.Review, offset int64, aspectSeen map[int]map[string]bool) bool {
	pos := s.livePos(rec.ItemID, rec.ID)
	if pos < 0 {
		return false
	}
	s.byItem[rec.ItemID][pos] = offset
	s.indexAspects(rec, aspectSeen)
	return true
}

// applyRemove replays a remove: the review leaves the live view. Unknown
// references are a no-op (see applyUpdate).
func (s *Store) applyRemove(itemID, reviewID string) bool {
	pos := s.livePos(itemID, reviewID)
	if pos < 0 {
		return false
	}
	offs, ids := s.byItem[itemID], s.idsByItem[itemID]
	s.byItem[itemID] = append(offs[:pos], offs[pos+1:]...)
	s.idsByItem[itemID] = append(ids[:pos], ids[pos+1:]...)
	if len(s.byItem[itemID]) == 0 {
		delete(s.byItem, itemID)
		delete(s.idsByItem, itemID)
	}
	s.count--
	return true
}

// indexAspects unions the review's aspects into the byAspect postings.
func (s *Store) indexAspects(rec *model.Review, aspectSeen map[int]map[string]bool) {
	for _, a := range rec.AspectSet() {
		if aspectSeen != nil {
			seen := aspectSeen[a]
			if seen == nil {
				seen = map[string]bool{}
				aspectSeen[a] = seen
			}
			if !seen[rec.ItemID] {
				seen[rec.ItemID] = true
				s.byAspect[a] = append(s.byAspect[a], rec.ItemID)
			}
			continue
		}
		if !containsString(s.byAspect[a], rec.ItemID) {
			s.byAspect[a] = append(s.byAspect[a], rec.ItemID)
		}
	}
}

// AppendUpdate logs an in-place replacement of an existing review and swaps
// it into the live view. The log is append-only: the old record's bytes
// stay where they are and simply stop being referenced.
func (s *Store) AppendUpdate(rec *model.Review) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.livePos(rec.ItemID, rec.ID) < 0 {
		return fmt.Errorf("store: update of unknown review %q on item %q", rec.ID, rec.ItemID)
	}
	payload, err := json.Marshal(logEnvelope{Op: opUpdate, Review: rec})
	if err != nil {
		return fmt.Errorf("store: encoding update %q: %w", rec.ID, err)
	}
	offset, err := s.writeRecord(payload)
	if err != nil {
		return err
	}
	s.applyUpdate(rec, offset, nil)
	return nil
}

// AppendRemove logs a tombstone for an existing review and deletes it from
// the live view.
func (s *Store) AppendRemove(itemID, reviewID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.livePos(itemID, reviewID) < 0 {
		return fmt.Errorf("store: remove of unknown review %q on item %q", reviewID, itemID)
	}
	payload, err := json.Marshal(logEnvelope{Op: opRemove, ItemID: itemID, ReviewID: reviewID})
	if err != nil {
		return fmt.Errorf("store: encoding tombstone %q: %w", reviewID, err)
	}
	if _, err := s.writeRecord(payload); err != nil {
		return err
	}
	s.applyRemove(itemID, reviewID)
	return nil
}

// AppendMutation logs one model-level corpus mutation: appends append, an
// update updates, a remove tombstones. It is the bridge the serving layer
// uses to make its in-memory mutations durable before applying them.
func (s *Store) AppendMutation(m *model.Mutation) error {
	switch m.Kind {
	case model.MutationAppend:
		for _, id := range m.ReviewIDs {
			r := m.New.ReviewByID(id)
			if r == nil {
				return fmt.Errorf("store: mutation names unknown review %q", id)
			}
			if err := s.Append(r); err != nil {
				return err
			}
		}
		return nil
	case model.MutationUpdate:
		r := m.New.ReviewByID(m.ReviewIDs[0])
		if r == nil {
			return fmt.Errorf("store: mutation names unknown review %q", m.ReviewIDs[0])
		}
		return s.AppendUpdate(r)
	case model.MutationRemove:
		return s.AppendRemove(m.ItemID, m.ReviewIDs[0])
	default:
		return fmt.Errorf("store: unknown mutation kind %v", m.Kind)
	}
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

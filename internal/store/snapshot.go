// Snapshot export: serializing a live corpus as CSLG log bytes.
//
// The distributed tier ships corpora between processes as the store's own
// wire format — a v1 file header followed by length+CRC framed review
// records — so a joining replica can persist the stream to disk and replay
// it through the exact same recovery scan that protects crash-truncated
// logs. A snapshot torn mid-transfer is indistinguishable from a log torn
// mid-append: Open keeps the longest valid prefix and the joiner detects
// the shortfall by comparing record counts against the snapshot manifest.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"comparesets/internal/model"
)

// WriteCorpusLog streams the corpus's live reviews to w as a version-1 CSLG
// log: the 8-byte file header, then one framed append record per review,
// items in sorted-ID order and each item's reviews in slice order. The
// resulting bytes open with Open/OpenWithOptions like any other log, and the
// replayed store reproduces the corpus's reviews exactly (same per-item
// order), so a snapshot-rebuilt corpus fingerprints identically to its
// source. Returns the number of records written.
func WriteCorpusLog(w io.Writer, c *model.Corpus) (int, error) {
	var hdr [fileHeaderSize]byte
	copy(hdr[:4], fileMagic[:])
	hdr[4] = FormatV1
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("store: writing snapshot header: %w", err)
	}
	n := 0
	for _, id := range c.ItemIDs() {
		for _, rec := range c.Items[id].Reviews {
			payload, err := json.Marshal(rec)
			if err != nil {
				return n, fmt.Errorf("store: encoding review %q: %w", rec.ID, err)
			}
			if len(payload) > MaxRecordSize {
				return n, fmt.Errorf("store: review %q exceeds max record size", rec.ID)
			}
			var frame [headerSize]byte
			binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
			binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
			if _, err := w.Write(frame[:]); err != nil {
				return n, fmt.Errorf("store: writing record frame: %w", err)
			}
			if _, err := w.Write(payload); err != nil {
				return n, fmt.Errorf("store: writing record payload: %w", err)
			}
			n++
		}
	}
	return n, nil
}

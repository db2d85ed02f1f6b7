// Package store is a disk-backed review store: an append-only, CRC-checked
// record log with in-memory item and aspect indexes rebuilt on open. At the
// paper's corpus scale (hundreds of thousands of reviews per category,
// Table 2) instances are assembled per target product on demand; the store
// provides exactly that access path — fetch one item's reviews, or the IDs
// of items discussing an aspect — without holding review text for a whole
// category in memory as JSON.
//
// Layout: a single segment file of length-prefixed records
//
//	[4-byte big-endian payload length][4-byte CRC32 (Castagnoli)][payload]
//
// where each payload is one JSON-encoded review. Two file formats share
// that record framing:
//
//   - legacy (version 0): records start at byte 0 — the format every log
//     written before versioning used, and still the default for new files
//     so clean round-trips stay byte-identical across releases;
//   - version 1: an 8-byte file header ("CSLG", version byte, three
//     reserved zero bytes) precedes the records, giving future format
//     changes a place to declare themselves. Opt in with
//     OpenOptions.FormatVersion; Open reads either format transparently.
//
// The two formats cannot be confused: a legacy log would need a first
// record longer than MaxRecordSize to begin with the header magic.
//
// Crash safety: writes are appended and the index is updated atomically
// under the store lock. On open, scan replays the log and stops at the
// first invalid record — a torn tail from a crash mid-append, a
// bit-flipped payload, a corrupt length — keeping every record before it,
// truncating the rest, and reporting what was dropped (Recovery).
// Transient read errors in ItemReviews are retried with jittered backoff;
// corruption is not.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"comparesets/internal/faultinject"
	"comparesets/internal/model"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the store.
var (
	ErrClosed        = errors.New("store: closed")
	ErrCorruptRecord = errors.New("store: corrupt record")
)

const headerSize = 8 // 4-byte length + 4-byte CRC

// File format versions accepted by OpenOptions.FormatVersion.
const (
	// FormatLegacy is the headerless original layout (records at byte 0).
	FormatLegacy = 0
	// FormatV1 prefixes the log with the 8-byte versioned file header.
	FormatV1 = 1
)

// fileMagic introduces the versioned file header; fileHeaderSize is its
// total length (magic + version byte + three reserved zero bytes).
var fileMagic = [4]byte{'C', 'S', 'L', 'G'}

const fileHeaderSize = 8

// MaxRecordSize bounds a single review payload (1 MiB is orders of
// magnitude above any real review) so a corrupt length prefix cannot force
// a giant allocation.
const MaxRecordSize = 1 << 20

// readAttempts bounds ItemReviews retries on transient (non-corruption)
// read errors; backoff doubles from readBackoffBase with up to one base
// unit of jitter per attempt.
const (
	readAttempts    = 3
	readBackoffBase = time.Millisecond
)

// RecoveryStats reports what scan dropped while opening a log.
type RecoveryStats struct {
	// DroppedRecords is the best-effort count of records lost after the
	// first corruption (≥ 1 whenever DroppedBytes > 0). When record
	// framing past the corruption is unreadable the count stops early, so
	// treat it as a lower bound.
	DroppedRecords int
	// DroppedBytes is the exact number of bytes truncated from the tail.
	DroppedBytes int64
	// Reason describes the first corruption encountered ("" for a clean
	// open).
	Reason string
}

// OpenOptions tunes Open.
type OpenOptions struct {
	// FormatVersion selects the file format for newly created (empty)
	// files: FormatLegacy (the default, byte-identical to logs written
	// before versioning) or FormatV1. Existing files keep the format they
	// were written with regardless of this setting.
	FormatVersion int
	// Logger receives a recovery report when scan drops corrupt data; nil
	// discards it.
	Logger *log.Logger
}

// Store is an open review store.
type Store struct {
	mu      sync.RWMutex
	f       *os.File
	path    string
	size    int64 // valid bytes (end of last good record)
	version int   // file format version (FormatLegacy or FormatV1)

	// indexes over the live (post-mutation) view of the log
	byItem    map[string][]int64  // item ID -> live record offsets
	idsByItem map[string][]string // item ID -> live review IDs (parallel to byItem)
	byAspect  map[int][]string    // aspect -> item IDs (deduplicated, append-monotone)
	count     int
	closed    bool

	recovery RecoveryStats
	retries  atomic.Uint64 // transient-read retry count (ItemReviews)
}

// Open opens (or creates) a store at path with default options, scanning
// existing records to rebuild the indexes. Corruption is never fatal: the
// scan keeps every record before the first invalid one, truncates the
// rest, and reports the loss through Recovery.
func Open(path string) (*Store, error) {
	return OpenWithOptions(path, OpenOptions{})
}

// OpenWithOptions is Open with explicit options.
func OpenWithOptions(path string, opts OpenOptions) (*Store, error) {
	if opts.FormatVersion != FormatLegacy && opts.FormatVersion != FormatV1 {
		return nil, fmt.Errorf("store: unsupported format version %d", opts.FormatVersion)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{
		f:         f,
		path:      path,
		byItem:    map[string][]int64{},
		idsByItem: map[string][]string{},
		byAspect:  map[int][]string{},
	}
	if err := s.scan(opts); err != nil {
		f.Close()
		return nil, err
	}
	if s.recovery.DroppedBytes > 0 && opts.Logger != nil {
		opts.Logger.Printf("store: %s: dropped %d record(s) (%d bytes) past offset %d: %s",
			path, s.recovery.DroppedRecords, s.recovery.DroppedBytes, s.size, s.recovery.Reason)
	}
	return s, nil
}

// scan replays the log, indexing every intact record, stopping at the
// first corruption, and truncating everything past it.
func (s *Store) scan(opts OpenOptions) error {
	if err := faultinject.Check(faultinject.PointStoreScan); err != nil {
		return err
	}
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	fileSize := info.Size()
	var offset int64
	s.version = FormatLegacy
	if fileSize == 0 {
		// New file: stamp the header if a versioned format was requested.
		if opts.FormatVersion == FormatV1 {
			if err := s.writeFileHeader(); err != nil {
				return err
			}
			s.version = FormatV1
			offset = fileHeaderSize
		}
		s.size = offset
		return nil
	}
	if fileSize >= fileHeaderSize {
		var hdr [fileHeaderSize]byte
		if _, err := s.f.ReadAt(hdr[:], 0); err != nil {
			return err
		}
		if [4]byte(hdr[:4]) == fileMagic {
			version := int(hdr[4])
			if version != FormatV1 {
				return fmt.Errorf("store: %s: unsupported log format version %d", s.path, version)
			}
			s.version = version
			offset = fileHeaderSize
		}
	}
	r := bufio.NewReader(io.NewSectionReader(s.f, offset, fileSize-offset))
	aspectSeen := map[int]map[string]bool{}
	var reason string
	for {
		var header [headerSize]byte
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err != io.EOF {
				reason = "torn record header"
			}
			break
		}
		length := binary.BigEndian.Uint32(header[:4])
		sum := binary.BigEndian.Uint32(header[4:8])
		if length == 0 || length > MaxRecordSize {
			reason = fmt.Sprintf("implausible record length %d", length)
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			reason = "torn record payload"
			break
		}
		if crc32.Checksum(payload, crcTable) != sum {
			reason = "checksum mismatch"
			break
		}
		op, rec, itemID, reviewID, err := decodeRecord(payload)
		if err != nil {
			reason = fmt.Sprintf("undecodable payload: %v", err)
			break
		}
		switch op {
		case opUpdate:
			s.applyUpdate(rec, offset, aspectSeen)
		case opRemove:
			s.applyRemove(itemID, reviewID)
		default:
			s.applyAppend(rec, offset, aspectSeen)
		}
		offset += headerSize + int64(length)
	}
	s.size = offset
	if offset < fileSize {
		s.recovery = RecoveryStats{
			DroppedRecords: s.countDroppedRecords(offset, fileSize),
			DroppedBytes:   fileSize - offset,
			Reason:         reason,
		}
		if err := s.f.Truncate(offset); err != nil {
			return fmt.Errorf("store: truncating corrupt tail: %w", err)
		}
	}
	return nil
}

// countDroppedRecords walks the record framing past the first corruption
// to estimate how many records the truncation discards. The first dropped
// record's own length field may be corrupt, so the walk stops at the first
// implausible frame; the count is therefore a lower bound, never less
// than 1.
func (s *Store) countDroppedRecords(from, fileSize int64) int {
	count := 0
	r := bufio.NewReader(io.NewSectionReader(s.f, from, fileSize-from))
	for {
		var header [headerSize]byte
		if _, err := io.ReadFull(r, header[:]); err != nil {
			// A trailing fragment too short to be a record still loses
			// (at least the tail of) one record.
			if err != io.EOF {
				count++
			}
			break
		}
		length := binary.BigEndian.Uint32(header[:4])
		if length == 0 || length > MaxRecordSize {
			count++ // unframeable: at least this record is gone
			break
		}
		if _, err := r.Discard(int(length)); err != nil {
			count++ // torn payload
			break
		}
		count++
	}
	if count == 0 {
		count = 1
	}
	return count
}

// writeFileHeader stamps the v1 header on a new empty file.
func (s *Store) writeFileHeader() error {
	var hdr [fileHeaderSize]byte
	copy(hdr[:4], fileMagic[:])
	hdr[4] = FormatV1
	if _, err := s.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: writing file header: %w", err)
	}
	return nil
}

// Recovery reports what the opening scan dropped (zero values for a clean
// log).
func (s *Store) Recovery() RecoveryStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovery
}

// FormatVersion returns the file format the open log uses (FormatLegacy
// or FormatV1).
func (s *Store) FormatVersion() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// ReadRetries returns how many transient-read retries ItemReviews has
// performed since open.
func (s *Store) ReadRetries() uint64 { return s.retries.Load() }

// Healthy probes the store for readiness checks: it fails when the store
// is closed or the backing file has become unstattable.
func (s *Store) Healthy() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	_, err := s.f.Stat()
	return err
}

// Append writes a review to the log and indexes it. The record is durable
// in the OS buffer after return; call Sync for fsync semantics.
func (s *Store) Append(rec *model.Review) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding review %q: %w", rec.ID, err)
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("store: review %q exceeds max record size", rec.ID)
	}
	offset, err := s.writeRecord(payload)
	if err != nil {
		return err
	}
	s.applyAppend(rec, offset, nil)
	return nil
}

// AppendCorpus bulk-loads every review of the corpus.
func (s *Store) AppendCorpus(c *model.Corpus) error {
	for _, id := range c.ItemIDs() {
		for _, r := range c.Items[id].Reviews {
			if err := s.Append(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// itemReviewsBufferSize is the read-ahead window of the batch reader. One
// OS read covers many adjacent records; gaps are skipped with Discard,
// which only refills when the gap outruns the buffer.
const itemReviewsBufferSize = 64 << 10

// ItemReviews fetches all reviews of an item, in append order.
//
// Instead of one positioned read per record, the offsets are visited in
// ascending file order through a single buffered reader: records of one
// item cluster by append time, so a batch usually costs a handful of large
// sequential reads rather than 2×len(offsets) syscalls. Results are
// reordered back to append order on the way out (for this log they
// coincide, since the posting list is built append-only, but the batch
// reader does not rely on that).
//
// Transient I/O errors are retried up to readAttempts times with doubling,
// jittered backoff; corruption (ErrCorruptRecord) fails immediately —
// rereading rotted bytes cannot help.
func (s *Store) ItemReviews(itemID string) ([]*model.Review, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	offsets := s.byItem[itemID]
	if len(offsets) == 0 {
		return nil, nil
	}
	var lastErr error
	for attempt := 0; attempt < readAttempts; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			backoff := readBackoffBase << (attempt - 1)
			time.Sleep(backoff + time.Duration(rand.Int63n(int64(readBackoffBase))))
		}
		if err := faultinject.Check(faultinject.PointStoreRead); err != nil {
			lastErr = err
			continue
		}
		out, err := s.readRecords(offsets)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if errors.Is(err, ErrCorruptRecord) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("store: reading %q after %d attempts: %w", itemID, readAttempts, lastErr)
}

// visit orders a batch read: the k-th smallest offset lands its record at
// out[order[k].pos], keeping append order in the result.
type visit struct {
	off int64
	pos int
}

func sortVisits(offsets []int64) []visit {
	order := make([]visit, len(offsets))
	for i, off := range offsets {
		order[i] = visit{off: off, pos: i}
	}
	slices.SortFunc(order, func(a, b visit) int {
		switch {
		case a.off < b.off:
			return -1
		case a.off > b.off:
			return 1
		default:
			return 0
		}
	})
	return order
}

// readRecords performs one batch-read attempt over the given offsets: one
// throwaway buffered pass in ascending offset order. Caller holds at least
// the read lock.
func (s *Store) readRecords(offsets []int64) ([]*model.Review, error) {
	order := sortVisits(offsets)
	start := order[0].off
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, start, s.size-start), itemReviewsBufferSize)
	cursor := start
	out := make([]*model.Review, len(offsets))
	var header [headerSize]byte
	for _, v := range order {
		if skip := v.off - cursor; skip > 0 {
			if _, err := r.Discard(int(skip)); err != nil {
				return nil, fmt.Errorf("%w: seeking to %d: %v", ErrCorruptRecord, v.off, err)
			}
			cursor = v.off
		}
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return nil, fmt.Errorf("%w: header at %d: %v", ErrCorruptRecord, v.off, err)
		}
		length := binary.BigEndian.Uint32(header[:4])
		sum := binary.BigEndian.Uint32(header[4:8])
		if length == 0 || length > MaxRecordSize {
			return nil, fmt.Errorf("%w: bad length %d at %d", ErrCorruptRecord, length, v.off)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: payload at %d: %v", ErrCorruptRecord, v.off, err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return nil, fmt.Errorf("%w: checksum mismatch at %d", ErrCorruptRecord, v.off)
		}
		// A live offset points at an append (raw review) or update
		// (envelope) record; either way the payload carries the review.
		_, rec, _, _, err := decodeRecord(payload)
		if err != nil || rec == nil {
			return nil, fmt.Errorf("%w: decode at %d: %v", ErrCorruptRecord, v.off, err)
		}
		out[v.pos] = rec
		cursor = v.off + headerSize + int64(length)
	}
	return out, nil
}

// ItemsWithAspect returns the sorted IDs of items whose reviews mention the
// aspect.
func (s *Store) ItemsWithAspect(aspect int) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := append([]string(nil), s.byAspect[aspect]...)
	sort.Strings(out)
	return out
}

// Items returns the sorted item IDs present in the store.
func (s *Store) Items() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byItem))
	for id := range s.byItem {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of live reviews (appends minus removes).
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Sync fsyncs the underlying file.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.f.Sync()
}

// Close syncs and closes the store. Further calls return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Snapshot-based corpus shipping.
//
// A replica joining a shard needs the shard's current corpora. Rather than
// invent a transfer format, the wire stream *is* the store's own CSLG log —
// a manifest (item metadata, aspect vocabulary, expected record count, and
// the source corpus fingerprint) followed by the exact bytes
// store.WriteCorpusLog produces. The joiner persists the stream to disk and
// opens it with the ordinary store recovery scan, so a transfer torn by a
// crash, a conndrop fault, or a killed peer degrades to the same
// well-tested failure mode as a torn log: the longest valid prefix
// survives, the shortfall is detected by record count, and the fetch is
// retried. Fingerprint parity between the rebuilt corpus and the manifest
// proves the replica serves byte-identical selections to its peers.
//
// Wire layout of GET /internal/v1/snapshot/{category}:
//
//	[4-byte big-endian manifest length][manifest JSON][CSLG v1 log bytes]
package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"comparesets/internal/faultinject"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/store"
)

// SnapshotPathPrefix is where workers and the router mount the snapshot
// stream handler.
const SnapshotPathPrefix = "/internal/v1/snapshot/"

// maxManifestBytes bounds the manifest length prefix so a corrupt stream
// cannot force a giant allocation.
const maxManifestBytes = 64 << 20

// ErrSnapshotIncomplete reports a transfer whose replayed record count fell
// short of the manifest's — a torn stream recovered to a valid prefix.
var ErrSnapshotIncomplete = errors.New("cluster: snapshot transfer incomplete")

// CorpusSource is the worker-side seam the snapshot handler reads from;
// *service.Server satisfies it.
type CorpusSource interface {
	Corpus(name string) (*model.Corpus, bool)
	Categories() []string
}

// SnapshotManifest precedes the log bytes on the wire.
type SnapshotManifest struct {
	Category string   `json:"category"`
	Aspects  []string `json:"aspects"`
	// Items carries every item's metadata with reviews stripped — the log
	// bytes carry the reviews.
	Items []*model.Item `json:"items"`
	// ReviewCount is how many records the log portion holds; a replayed
	// store with fewer records means the transfer was torn.
	ReviewCount int `json:"review_count"`
	// Fingerprint is the source corpus's model fingerprint (%016x); the
	// rebuilt corpus must match it exactly.
	Fingerprint string `json:"fingerprint"`
}

// WriteSnapshot encodes the corpus's snapshot stream to w: length-prefixed
// manifest, then CSLG log bytes.
func WriteSnapshot(w io.Writer, c *model.Corpus) error {
	man := SnapshotManifest{
		Category:    c.Category,
		Aspects:     c.Aspects.Names(),
		ReviewCount: c.NumReviews(),
		Fingerprint: fmt.Sprintf("%016x", c.Fingerprint()),
	}
	for _, id := range c.ItemIDs() {
		it := c.Items[id]
		man.Items = append(man.Items, &model.Item{
			ID: it.ID, Title: it.Title, Category: it.Category, Price: it.Price,
			AlsoBought: it.AlsoBought,
		})
	}
	manBytes, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("cluster: encoding manifest: %w", err)
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(manBytes)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(manBytes); err != nil {
		return err
	}
	_, err = store.WriteCorpusLog(w, c)
	return err
}

// SnapshotHandler serves GET /internal/v1/snapshot/{category} from src.
// The faultinject point router.snapshot is consulted per request: error
// mode answers 500, conndrop mode tears the stream mid-body (after the
// manifest and roughly half the log bytes), exercising the joiner's
// torn-tail recovery end to end.
func SnapshotHandler(src CorpusSource, logger *log.Logger) http.Handler {
	if logger == nil {
		logger = log.Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+SnapshotPathPrefix+"{category}", func(w http.ResponseWriter, r *http.Request) {
		span := obs.StartStage(obs.StageSnapshotShip)
		defer span.Stop()
		category := r.PathValue("category")
		c, ok := src.Corpus(category)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown category %q", category), http.StatusNotFound)
			return
		}
		ferr := faultinject.CheckCtx(r.Context(), faultinject.PointRouterSnapshot)
		if ferr != nil && !errors.Is(ferr, faultinject.ErrConnDrop) {
			http.Error(w, "snapshot unavailable", http.StatusInternalServerError)
			return
		}
		// Buffer the stream so Content-Length is exact and a conndrop fault
		// can tear it at a deterministic midpoint.
		var buf bytesBuffer
		if err := WriteSnapshot(&buf, c); err != nil {
			logger.Printf("cluster: encoding snapshot of %q: %v", category, err)
			http.Error(w, "snapshot encoding failed", http.StatusInternalServerError)
			return
		}
		data := buf.b
		if errors.Is(ferr, faultinject.ErrConnDrop) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", fmt.Sprint(len(data)))
			w.WriteHeader(http.StatusOK)
			w.Write(data[:len(data)/2])
			abortConn(w)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(data); err != nil {
			logger.Printf("cluster: streaming snapshot of %q: %v", category, err)
		}
	})
	return mux
}

// bytesBuffer is a minimal append-only writer (avoids importing bytes for
// one use).
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// abortConn tears the client connection down mid-response: hijack and
// close when the transport allows it, otherwise abort the handler. Clients
// observe io.ErrUnexpectedEOF / connection reset instead of a well-formed
// response — exactly what a crashing peer looks like.
func abortConn(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

// FetchSnapshot downloads one category's snapshot from the peer base URL,
// persists the log bytes under dir, replays them through the store's
// recovery scan, and rebuilds the corpus. ErrSnapshotIncomplete (torn
// stream) and fingerprint mismatches are errors — callers retry.
func FetchSnapshot(ctx context.Context, client *http.Client, base, category, dir string) (*model.Corpus, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+SnapshotPathPrefix+url.PathEscape(category), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching snapshot of %q: %w", category, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: snapshot of %q: status %d", category, resp.StatusCode)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(resp.Body, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("cluster: reading manifest length: %w", err)
	}
	manLen := binary.BigEndian.Uint32(lenBuf[:])
	if manLen == 0 || manLen > maxManifestBytes {
		return nil, fmt.Errorf("cluster: implausible manifest length %d", manLen)
	}
	manBytes := make([]byte, manLen)
	if _, err := io.ReadFull(resp.Body, manBytes); err != nil {
		return nil, fmt.Errorf("cluster: reading manifest: %w", err)
	}
	var man SnapshotManifest
	if err := json.Unmarshal(manBytes, &man); err != nil {
		return nil, fmt.Errorf("cluster: decoding manifest: %w", err)
	}
	if man.Category != category {
		return nil, fmt.Errorf("cluster: snapshot manifest is for %q, requested %q", man.Category, category)
	}

	// Persist the log portion, tolerating a torn stream: whatever arrived
	// is written out, and the store's recovery scan decides how much of it
	// is valid.
	logPath := filepath.Join(dir, url.PathEscape(category)+".cslg")
	f, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	_, copyErr := io.Copy(f, resp.Body)
	if err := f.Close(); err != nil {
		return nil, err
	}

	st, err := store.Open(logPath)
	if err != nil {
		return nil, fmt.Errorf("cluster: replaying snapshot log: %w", err)
	}
	defer st.Close()
	if st.Count() != man.ReviewCount {
		return nil, fmt.Errorf("%w: %q replayed %d/%d records (stream error: %v, recovery: %+v)",
			ErrSnapshotIncomplete, category, st.Count(), man.ReviewCount, copyErr, st.Recovery())
	}

	c := model.NewCorpus(man.Category, model.NewVocabulary(man.Aspects))
	for _, it := range man.Items {
		revs, err := st.ItemReviews(it.ID)
		if err != nil {
			return nil, fmt.Errorf("cluster: reading replayed reviews of %q: %w", it.ID, err)
		}
		c.AddItem(&model.Item{
			ID: it.ID, Title: it.Title, Category: it.Category, Price: it.Price,
			AlsoBought: it.AlsoBought, Reviews: revs,
		})
	}
	if got := fmt.Sprintf("%016x", c.Fingerprint()); got != man.Fingerprint {
		return nil, fmt.Errorf("cluster: rebuilt corpus fingerprint %s != manifest %s", got, man.Fingerprint)
	}
	return c, nil
}

// joinAttempts bounds per-category snapshot fetch retries during Join.
const joinAttempts = 4

// Join bootstraps a replica from a peer (a worker or the router's snapshot
// proxy): it lists the peer's categories and fetches every snapshot, with
// bounded jittered retries per category — a torn transfer is refetched, and
// the store-level recovery makes each retry start from a clean slate.
func Join(ctx context.Context, base, dir string, logger *log.Logger) (map[string]*model.Corpus, error) {
	if logger == nil {
		logger = log.Default()
	}
	client := &http.Client{Timeout: 60 * time.Second}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/categories", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: listing peer categories: %w", err)
	}
	var cats []struct {
		Name string `json:"name"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&cats)
	resp.Body.Close()
	if decErr != nil {
		return nil, fmt.Errorf("cluster: decoding peer categories: %w", decErr)
	}

	rng := rand.New(rand.NewSource(faultinject.CurrentSeed()))
	backoff := backoffConfig{Base: 50 * time.Millisecond, Cap: time.Second}
	out := make(map[string]*model.Corpus, len(cats))
	for _, cat := range cats {
		var lastErr error
		for attempt := 0; attempt < joinAttempts; attempt++ {
			if attempt > 0 && !sleepCtx(ctx, backoff.delay(attempt, rng)) {
				return nil, ctx.Err()
			}
			c, err := FetchSnapshot(ctx, client, base, cat.Name, dir)
			if err == nil {
				logger.Printf("cluster: joined %q (%d items, %d reviews)", cat.Name, len(c.Items), c.NumReviews())
				out[cat.Name] = c
				lastErr = nil
				break
			}
			lastErr = err
			logger.Printf("cluster: snapshot of %q attempt %d/%d failed: %v", cat.Name, attempt+1, joinAttempts, err)
		}
		if lastErr != nil {
			return nil, fmt.Errorf("cluster: joining %q: %w", cat.Name, lastErr)
		}
	}
	return out, nil
}

// Package selectreq is the /api/v1/select request contract shared by the
// worker (internal/service) and the routing tier (internal/cluster): the
// request body, its defaults, its canonical cache key, and the
// Comparesets-Instance response header.
//
// A comparative selection is a pure function of the request's semantic
// fields and the reviews of the items in its instance (Eq. 1 and Eq. 5
// decompose over exactly those items). Both tiers cache on that fact: each
// suffixes Key with its own view of the instance's state, and each learns
// what it may memoize from the worker's instance header. Keeping the field
// list, the defaults and the header codec here means the tiers cannot
// disagree about which requests share an answer.
//
// The package deliberately depends on nothing but the data model, so the
// router does not link the selection pipeline.
package selectreq

import (
	"net/url"
	"strconv"
	"strings"

	"comparesets/internal/model"
)

// Request is the /api/v1/select request body.
type Request struct {
	// Category + Target reference a loaded corpus...
	Category string `json:"category,omitempty"`
	Target   string `json:"target,omitempty"`
	// ...or Items + Aspects supply an inline instance (Items[0] = target).
	Aspects []string      `json:"aspects,omitempty"`
	Items   []*model.Item `json:"items,omitempty"`

	// Algorithm defaults to "CompaReSetS+".
	Algorithm string  `json:"algorithm,omitempty"`
	M         int     `json:"m"`
	Lambda    float64 `json:"lambda"`
	Mu        float64 `json:"mu"`
	// MaxComparative truncates the also-bought list (0 = full).
	MaxComparative int `json:"max_comparative,omitempty"`
	// K > 0 additionally shortlists with the given method
	// ("exact", "greedy", "topk", "random"; default "greedy").
	K      int    `json:"k,omitempty"`
	Method string `json:"method,omitempty"`
	// Summarize > 0 adds up to that many extracted summary sentences per
	// item; Explain > 0 adds up to that many comparative explanation
	// lines.
	Summarize int `json:"summarize,omitempty"`
	Explain   int `json:"explain,omitempty"`
	// Metrics requests the §5.1 selection-quality scores in the response.
	Metrics bool `json:"metrics,omitempty"`
	// TimeoutMS bounds the request's total processing time; when the
	// deadline passes, the selection is cancelled at its next checkpoint
	// and the request fails with 504/deadline_exceeded. 0 means no
	// per-request deadline beyond the client connection's. It bounds
	// computation time, never the result, so Key excludes it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// The worker's defaults for fields a request may leave empty.
const (
	defaultAlgorithm = "CompaReSetS+"
	defaultMethod    = "greedy"
)

// ApplyDefaults fills the algorithm default, and the shortlist-method
// default when a shortlist is requested, so requests that differ only in
// spelling out a default share one key.
func ApplyDefaults(r *Request) {
	if r.Algorithm == "" {
		r.Algorithm = defaultAlgorithm
	}
	if r.K > 0 && r.Method == "" {
		r.Method = defaultMethod
	}
}

// keyVersion is bumped whenever the select pipeline changes in a way that
// alters response payloads for the same request. The API always selects
// under the binary opinion scheme, so the scheme is covered by the version
// rather than keyed.
const keyVersion = "v2"

// Key is the canonical cache key of a request with defaults applied: every
// field that can shape the response payload, once, in a fixed order.
// String fields are quoted, so no field value can forge a separator and
// distinct requests never share a key. TimeoutMS is excluded. The key
// carries no corpus state; each tier appends its own state token. Inline
// instances (Items, Aspects) are not keyed: neither tier caches them.
func Key(r *Request) string {
	b := make([]byte, 0, 128)
	b = append(b, keyVersion...)
	b = append(b, "|cat="...)
	b = strconv.AppendQuote(b, r.Category)
	b = append(b, "|tgt="...)
	b = strconv.AppendQuote(b, r.Target)
	b = append(b, "|alg="...)
	b = strconv.AppendQuote(b, r.Algorithm)
	b = append(b, "|m="...)
	b = strconv.AppendInt(b, int64(r.M), 10)
	b = append(b, "|l="...)
	b = strconv.AppendFloat(b, r.Lambda, 'g', -1, 64)
	b = append(b, "|mu="...)
	b = strconv.AppendFloat(b, r.Mu, 'g', -1, 64)
	b = append(b, "|maxc="...)
	b = strconv.AppendInt(b, int64(r.MaxComparative), 10)
	b = append(b, "|k="...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	if r.K > 0 {
		b = append(b, "|meth="...)
		b = strconv.AppendQuote(b, r.Method)
	}
	b = append(b, "|sum="...)
	b = strconv.AppendInt(b, int64(r.Summarize), 10)
	b = append(b, "|exp="...)
	b = strconv.AppendInt(b, int64(r.Explain), 10)
	b = append(b, "|met="...)
	b = strconv.AppendBool(b, r.Metrics)
	return string(b)
}

// InstanceHeader names the response header the worker sends on canonical
// select answers only: servecache hits and fresh answers that any cache may
// memoize. Stale-while-error serves and shed exact solves never carry it.
// Its value names the resolved instance's items, whose reviews the answer
// depends on, so a cache in front of the worker learns from it both that
// the answer may be memoized and which mutation receipts re-key it.
const InstanceHeader = "Comparesets-Instance"

// InstanceValue encodes an instance's item IDs for InstanceHeader: in
// instance order, each url.QueryEscape'd, joined by commas.
func InstanceValue(items []*model.Item) string {
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(url.QueryEscape(it.ID))
	}
	return b.String()
}

// ParseInstance decodes an InstanceHeader value into item IDs. ok is false
// for an absent or malformed header.
func ParseInstance(v string) (ids []string, ok bool) {
	if v == "" {
		return nil, false
	}
	ids = strings.Split(v, ",")
	for i, enc := range ids {
		id, err := url.QueryUnescape(enc)
		if err != nil {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

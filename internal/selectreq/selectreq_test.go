package selectreq

import (
	"slices"
	"strings"
	"testing"

	"comparesets/internal/model"
)

// TestKey pins the canonical key: spelling out a default, field order and
// timeout_ms never change it, and every payload-shaping field separates.
func TestKey(t *testing.T) {
	base := Request{Category: "C", Target: "t", M: 3, Lambda: 1, Mu: 0.1}
	with := func(mutate func(r *Request)) Request {
		r := base
		mutate(&r)
		return r
	}
	shortlist := with(func(r *Request) { r.K = 3 })
	for _, tc := range []struct {
		name string
		a, b Request
		same bool
	}{
		{"explicit default algorithm", base, with(func(r *Request) { r.Algorithm = defaultAlgorithm }), true},
		{"timeout_ms excluded", base, with(func(r *Request) { r.TimeoutMS = 5000 }), true},
		{"method ignored without k", base, with(func(r *Request) { r.Method = "exact" }), true},
		{"explicit default method", shortlist, with(func(r *Request) { r.K = 3; r.Method = defaultMethod }), true},
		{"category", base, with(func(r *Request) { r.Category = "D" }), false},
		{"target", base, with(func(r *Request) { r.Target = "u" }), false},
		{"algorithm", base, with(func(r *Request) { r.Algorithm = "CompaReSetS" }), false},
		{"m", base, with(func(r *Request) { r.M = 4 }), false},
		{"lambda", base, with(func(r *Request) { r.Lambda = 2 }), false},
		{"lambda last digit", base, with(func(r *Request) { r.Lambda = 1.0000000000000002 }), false},
		{"mu", base, with(func(r *Request) { r.Mu = 0.2 }), false},
		{"max_comparative", base, with(func(r *Request) { r.MaxComparative = 7 }), false},
		{"k", base, shortlist, false},
		{"method", shortlist, with(func(r *Request) { r.K = 3; r.Method = "exact" }), false},
		{"summarize", base, with(func(r *Request) { r.Summarize = 1 }), false},
		{"explain", base, with(func(r *Request) { r.Explain = 2 }), false},
		{"metrics", base, with(func(r *Request) { r.Metrics = true }), false},
		{"forged separator",
			with(func(r *Request) { r.Category, r.Target = "C|tgt=t", "u" }),
			with(func(r *Request) { r.Category, r.Target = "C", "t|tgt=u" }), false},
	} {
		ApplyDefaults(&tc.a)
		ApplyDefaults(&tc.b)
		ka, kb := Key(&tc.a), Key(&tc.b)
		if (ka == kb) != tc.same {
			t.Errorf("%s: same=%v, want %v\n %s\n %s", tc.name, ka == kb, tc.same, ka, kb)
		}
		if !strings.HasPrefix(ka, keyVersion+"|") {
			t.Errorf("%s: key %q lacks the version prefix", tc.name, ka)
		}
	}
}

// TestInstanceHeaderRoundTrip: IDs holding the separator, the escape
// character, a newline or a space survive encoding, and the encoded value
// has exactly one comma per boundary.
func TestInstanceHeaderRoundTrip(t *testing.T) {
	ids := []string{"a,b", "50%\noff", "plain text", "x"}
	items := make([]*model.Item, len(ids))
	for i, id := range ids {
		items[i] = &model.Item{ID: id}
	}
	v := InstanceValue(items)
	if want := "a%2Cb,50%25%0Aoff,plain+text,x"; v != want {
		t.Errorf("InstanceValue = %q, want %q", v, want)
	}
	got, ok := ParseInstance(v)
	if !ok || !slices.Equal(got, ids) {
		t.Errorf("ParseInstance(%q) = %q, %v; want %q", v, got, ok, ids)
	}
	for _, bad := range []string{"", "x,%zz"} {
		if _, ok := ParseInstance(bad); ok {
			t.Errorf("ParseInstance(%q) accepted", bad)
		}
	}
}

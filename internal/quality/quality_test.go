package quality

import (
	"bytes"
	"os"
	"testing"
)

// committed is QUALITY.json at the repository root.
const committed = "../../QUALITY.json"

// TestQualityGate replays the workload and diffs every answer against the
// committed file: selections and shortlists exactly, objectives within
// RelTol.
func TestQualityGate(t *testing.T) {
	f, err := os.Open(committed)
	if err != nil {
		t.Fatalf("%v (regenerate with `make quality`)", err)
	}
	want, err := Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	diffs := Diff(want, got)
	for i, d := range diffs {
		if i == 20 {
			t.Errorf("... and %d more", len(diffs)-i)
			break
		}
		t.Error(d)
	}
	if len(diffs) > 0 {
		t.Fatalf("%d differences over %d answers; if the change is meant to move them, run `make quality` and commit QUALITY.json", len(diffs), len(want))
	}
}

// The committed file round-trips through Write/Read byte for byte, so
// `make quality` on an unchanged tree leaves it untouched.
func TestQualityFileCanonical(t *testing.T) {
	raw, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := Write(&b, answers); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), raw) {
		t.Fatal("QUALITY.json is not in the form `make quality` writes")
	}
}

// Diff must trip on a single moved review, a reordered shortlist, and an
// objective off by more than RelTol, and tolerate sub-RelTol noise.
func TestDiffCatchesPerturbations(t *testing.T) {
	base := func() []Answer {
		return []Answer{{
			Request:   Request{Category: "c", Target: "t", M: 3, Lambda: 1, Mu: 1, K: 3, Method: "exact"},
			Objective: 0.75,
			Items:     []Item{{ID: "t", Reviews: []string{"r1", "r2"}}, {ID: "u", Reviews: []string{"r9"}}},
			Shortlist: []int{0, 1, 2}, ShortlistWeight: 2.5,
		}}
	}
	if d := Diff(base(), base()); len(d) != 0 {
		t.Fatalf("identical answers differ: %v", d)
	}
	noisy := base()
	noisy[0].Objective *= 1 + 1e-14
	if d := Diff(base(), noisy); len(d) != 0 {
		t.Fatalf("sub-tolerance noise reported: %v", d)
	}
	for name, perturb := range map[string]func(*Answer){
		"review":    func(a *Answer) { a.Items[1].Reviews[0] = "r8" },
		"shortlist": func(a *Answer) { a.Shortlist[0], a.Shortlist[1] = 1, 0 },
		"objective": func(a *Answer) { a.Objective *= 1 + 1e-10 },
		"weight":    func(a *Answer) { a.ShortlistWeight += 1e-9 },
		"item":      func(a *Answer) { a.Items = a.Items[:1] },
	} {
		got := base()
		perturb(&got[0])
		if d := Diff(base(), got); len(d) == 0 {
			t.Errorf("%s perturbation not reported", name)
		}
	}
}

// Every served answer keeps the response invariants: at most m reviews per
// item, each review one of its item's own and none repeated, and the
// reported objective equal to Eq. 5 recomputed from the returned sets.
func TestAnswerInvariants(t *testing.T) {
	corpora, err := Corpora()
	if err != nil {
		t.Fatal(err)
	}
	answers, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range Violations(corpora, answers) {
		if i == 20 {
			t.Errorf("...")
			break
		}
		t.Error(v)
	}
	if len(answers) != len(Requests(corpora)) {
		t.Fatalf("%d answers for %d requests", len(answers), len(Requests(corpora)))
	}
}

// Violations must trip on each broken invariant.
func TestViolationsCatchBrokenAnswers(t *testing.T) {
	corpora, err := Corpora()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(committed)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	base := answers[0]
	if v := Violations(corpora, []Answer{base}); len(v) != 0 {
		t.Fatalf("committed answer reported: %v", v)
	}
	other := base.Items[1].Reviews[0]
	for name, perturb := range map[string]func(*Answer){
		"over m":    func(a *Answer) { a.Request.M = len(a.Items[0].Reviews) - 1 },
		"foreign":   func(a *Answer) { a.Items[0].Reviews[0] = other },
		"repeat":    func(a *Answer) { a.Items[0].Reviews[1] = a.Items[0].Reviews[0] },
		"objective": func(a *Answer) { a.Objective *= 1 + 1e-9 },
	} {
		a := base
		a.Items = make([]Item, len(base.Items))
		for j, it := range base.Items {
			a.Items[j] = Item{ID: it.ID, Reviews: append([]string(nil), it.Reviews...)}
		}
		perturb(&a)
		if v := Violations(corpora, []Answer{a}); len(v) == 0 {
			t.Errorf("%s not reported", name)
		}
	}
	// A CompaReSetS answer is checked against Eq. 1; read as an Eq. 5
	// answer, its objective misses the μ term.
	base = answers[len(answers)/2]
	if base.Request.Algorithm != baseAlgorithm {
		t.Fatalf("answer %d is not a %s answer", len(answers)/2, baseAlgorithm)
	}
	if v := Violations(corpora, []Answer{base}); len(v) != 0 {
		t.Fatalf("committed %s answer reported: %v", baseAlgorithm, v)
	}
	base.Request.Algorithm = ""
	if v := Violations(corpora, []Answer{base}); len(v) == 0 {
		t.Error("CompaReSetS answer checked as CompaReSetS+ not reported")
	}
}

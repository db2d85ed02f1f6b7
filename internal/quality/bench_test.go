package quality

import (
	"math/rand"
	"sort"
	"syscall"
	"testing"
	"time"

	"comparesets/internal/core"
	"comparesets/internal/dataset"
	"comparesets/internal/featstore"
	"comparesets/internal/model"
)

// BenchmarkColdReplay times cold CompaReSetS+ selections in process, the
// way a worker serves them once its caches are warm but no response is
// cached: per corpus one feature store and one regression-template cache,
// filled by an m = 2 pass over every target × λ of Lambdas, then one
// selection per op over every target × λ × m = MinM..MaxM shape, shuffled.
// It sizes solver and template changes without HTTP or scheduling noise,
// and reports the CPU time per op (user + system, from getrusage), the
// number of templates the caches hold and the bytes those templates own
// (ProblemCache.Bytes) next to ns/op.
func BenchmarkColdReplay(b *testing.B) {
	corpora, err := Corpora()
	if err != nil {
		b.Fatal(err)
	}
	type corpus struct {
		c        *model.Corpus
		features *featstore.Store
		problems *core.ProblemCache
	}
	type shape struct {
		inst *model.Instance
		cfg  core.Config
	}
	cats := make([]string, 0, len(corpora))
	for cat := range corpora {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	var sel core.CompaReSetSPlus
	var shapes []shape
	templates, templateBytes := 0, 0
	for _, cat := range cats {
		cc := corpus{c: corpora[cat], features: featstore.New(corpora[cat]), problems: core.NewProblemCache()}
		for _, id := range dataset.TargetIDs(cc.c) {
			inst, err := cc.c.NewInstance(id, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, lambda := range Lambdas {
				cfg := core.Config{M: 2, Lambda: lambda, Mu: 1, Features: cc.features, Problems: cc.problems}
				if _, err := sel.Select(inst, cfg); err != nil {
					b.Fatal(err)
				}
				for m := MinM; m <= MaxM; m++ {
					cfg.M = m
					shapes = append(shapes, shape{inst, cfg})
				}
			}
		}
		templates += cc.problems.Len()
		templateBytes += cc.problems.Bytes()
	}
	rand.New(rand.NewSource(CorpusSeed)).Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })

	cpu0 := cpuTime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shapes[i%len(shapes)]
		if _, err := sel.Select(s.inst, s.cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64((cpuTime(b)-cpu0).Microseconds())/float64(b.N), "cpu-us/op")
	b.ReportMetric(float64(templates), "templates")
	b.ReportMetric(float64(templateBytes), "template-bytes")
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

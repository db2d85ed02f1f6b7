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
	"comparesets/internal/obs"
)

// BenchmarkColdReplay times cold CompaReSetS+ selections in process, the
// way a worker serves them once its caches are warm but no response is
// cached: per corpus one feature store, whose entries also hold the
// regression templates, filled by an m = 2 pass over every target × λ of
// Lambdas, then one selection per op over every target × λ × m =
// MinM..MaxM shape, shuffled. It sizes solver and template changes
// without HTTP or scheduling noise, and reports the CPU time per op (user
// + system, from getrusage), the number of templates the stores hold, the
// bytes those templates own (featstore.Store.Templates) and the templates
// the stores' budgets evicted over the whole run next to ns/op.
func BenchmarkColdReplay(b *testing.B) {
	coldReplay(b, Lambdas)
}

// BenchmarkColdReplayWideLambda is BenchmarkColdReplay over eight λ
// layers, perfbench's four (1, 0.5, 2, 0.25) and four more, which build
// over 4,096 templates per corpus: it shows what a workload with many
// more template keys costs once they are resident.
func BenchmarkColdReplayWideLambda(b *testing.B) {
	coldReplay(b, []float64{1, 0.5, 2, 0.25, 0.75, 1.5, 3, 0.125})
}

func coldReplay(b *testing.B, lambdas []float64) {
	corpora, err := Corpora()
	if err != nil {
		b.Fatal(err)
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
	evictions := obs.NewCacheMetrics(obs.Default(), "featstore").Evictions
	evicted := evictions.Value()
	var sel core.CompaReSetSPlus
	var shapes []shape
	templates, templateBytes := 0, 0
	for _, cat := range cats {
		c := corpora[cat]
		features := featstore.New(c)
		for _, id := range dataset.TargetIDs(c) {
			inst, err := c.NewInstance(id, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, lambda := range lambdas {
				cfg := core.Config{M: 2, Lambda: lambda, Mu: 1, Features: features}
				if _, err := sel.Select(inst, cfg); err != nil {
					b.Fatal(err)
				}
				for m := MinM; m <= MaxM; m++ {
					cfg.M = m
					shapes = append(shapes, shape{inst, cfg})
				}
			}
		}
		n, bytes := features.Templates()
		templates += n
		templateBytes += bytes
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
	b.ReportMetric(float64(evictions.Value()-evicted), "evictions")
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

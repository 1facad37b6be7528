package index

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/sim"
)

// BenchmarkFuncScan is the function scan's layer number: whole-vocabulary
// probes under edit similarity at α = 0.8 over the vocabulary of the
// benchmark's search_edit workload (datagen twitter, scale 1.0), once per
// class-test kernel this CPU has (vpopcnt, portable). ns/pair is per
// (probe, vocabulary token) pair; scanned is the share of pairs in the
// classes the cuts admit, the sketches the class test reads, and admitted
// the share that passes it, the similarities evaluated.
func BenchmarkFuncScan(b *testing.B) {
	vocab := datagen.GenerateDefault(datagen.Twitter, 1.0).Repo.Vocabulary()
	const alpha = 0.8
	var fn sim.EditSimilarity
	classModes(func(mode string) {
		b.Run(mode, func(b *testing.B) {
			ix := NewFuncIndex(vocab, fn)
			var buf []Neighbor
			buf = ix.scan(vocab, vocab[0], alpha, buf[:0]) // builds the column
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ix.scan(vocab, vocab[i%len(vocab)], alpha, buf[:0])
			}
			b.StopTimer()
			v := ix.col.view.Load()
			scanned, admitted := 0, 0
			s := new(funcScratch)
			for i := 0; i < b.N; i++ {
				admitted += len(v.admit(fn.NewKernel(vocab[i%len(vocab)]), alpha, s))
				for c, cl := range v.classes {
					if s.cut[c] >= 0 {
						scanned += len(cl.pos)
					}
				}
			}
			pairs := float64(b.N) * float64(len(vocab))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
			b.ReportMetric(float64(scanned)/pairs, "scanned")
			b.ReportMetric(float64(admitted)/pairs, "admitted")
		})
	})
}

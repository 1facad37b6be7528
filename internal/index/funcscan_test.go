package index

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/sim"
)

// BenchmarkFuncScan is the function scan's layer number: whole-vocabulary
// probes under edit similarity at α = 0.8 over the vocabulary of the
// benchmark's search_edit workload (datagen twitter, scale 1.0), with sketch
// admission on and off. ns/pair is per (probe, vocabulary token) pair;
// admitted is the share of pairs whose similarity was evaluated.
func BenchmarkFuncScan(b *testing.B) {
	vocab := datagen.GenerateDefault(datagen.Twitter, 1.0).Repo.Vocabulary()
	const alpha = 0.8
	var fn sim.EditSimilarity
	for _, filters := range []bool{true, false} {
		name := "filters=on"
		if !filters {
			name = "filters=off"
		}
		b.Run(name, func(b *testing.B) {
			ix := NewFuncIndex(vocab, fn)
			ix.SetKernelFilters(filters)
			var buf []Neighbor
			buf = ix.scan(vocab, vocab[0], alpha, buf[:0]) // builds the column
			admitted := len(vocab)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ix.scan(vocab, vocab[i%len(vocab)], alpha, buf[:0])
			}
			b.StopTimer()
			if filters {
				admitted = 0
				for i := 0; i < b.N; i++ {
					k := fn.NewKernel(vocab[i%len(vocab)])
					admitted += len(k.Admit(ix.col.view.Load().sketches, alpha, nil))
				}
				admitted /= b.N
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vocab)), "ns/pair")
			b.ReportMetric(float64(admitted)/float64(len(vocab)), "admitted")
		})
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/sim"
)

// hiddenKernelFunc hides the Batcher capability of a similarity
// function, forcing the index scan paths onto the plain per-pair loop.
type hiddenKernelFunc struct{ fn sim.Func }

func (p hiddenKernelFunc) Sim(a, b string) float64 { return p.fn.Sim(a, b) }
func (p hiddenKernelFunc) Name() string            { return p.fn.Name() }

// admitAllFunc is edit similarity with sketch admission off: every token's
// sketch is 0 and its kernels admit every class whole, so the kernel scan
// evaluates every pair.
type admitAllFunc struct{ sim.EditSimilarity }

func (admitAllFunc) Sketch(string) uint64 { return 0 }
func (f admitAllFunc) NewKernel(q string) sim.Kernel {
	return admitAllKernel{f.EditSimilarity.NewKernel(q)}
}

type admitAllKernel struct{ sim.Kernel }

func (admitAllKernel) Cuts(_ float64, cut *[sim.SketchClasses]int32) uint64 {
	for c := range cut {
		cut[c] = sim.SignatureBits
	}
	return 0
}

// TestKernelScanEngineEquivalence: a full search through the kernel scan path
// (admission filters on and off) must be indistinguishable — results and all
// stats — from one through the plain per-pair scan.
func TestKernelScanEngineEquivalence(t *testing.T) {
	candidates := 0
	for seed := int64(700); seed < 720; seed++ {
		repo, _, query := randomInstance(seed)
		fn := sim.EditSimilarity{}
		kernelSrc := index.NewFuncIndex(repo.Vocabulary(), fn)
		unfilteredSrc := index.NewFuncIndex(repo.Vocabulary(), admitAllFunc{fn})
		plainSrc := index.NewFuncIndex(repo.Vocabulary(), hiddenKernelFunc{fn})
		opts := Options{K: 5, Alpha: 0.5}
		pres, pst := NewEngine(repo, plainSrc, opts).Search(query)
		for name, src := range map[string]*index.FuncIndex{"kernel": kernelSrc, "unfiltered": unfilteredSrc} {
			res, st := NewEngine(repo, src, opts).Search(query)
			if fmt.Sprint(res) != fmt.Sprint(pres) {
				t.Fatalf("seed %d %s: results diverge\ngot:  %v\nwant: %v", seed, name, res, pres)
			}
			if st.Candidates != pst.Candidates || st.StreamTuples != pst.StreamTuples ||
				st.EMEarly != pst.EMEarly || st.EMFull != pst.EMFull || st.NoEM != pst.NoEM {
				t.Fatalf("seed %d %s: stats diverge\ngot:  %+v\nwant: %+v", seed, name, st, pst)
			}
		}
		candidates += pst.Candidates
	}
	if candidates == 0 {
		t.Fatal("no candidates on any seed — the kernel path went unexercised")
	}
}

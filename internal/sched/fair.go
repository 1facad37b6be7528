package sched

// Share is one tenant's place in the weighted fair-share rule that picks
// both the next maintenance run here and the next search waiter in the
// server's worker pool (DESIGN.md §15). The rule is surplus round robin:
// in each round every tenant with work gains its weight in credit, the
// richest wins (ties to the lower name) and pays back the round's total
// weight, and a tenant with nothing to do drops to zero credit. Over a
// busy interval every tenant's net credit returns to zero, so grants
// settle at weight/Σweights exactly (100/100/400 of 600 at 1:1:4), and a
// waiting tenant's credit grows every round until it wins: nobody
// starves, and idleness banks nothing.
type Share struct {
	Name   string
	Weight int // ≥ 1
	Credit int
}

// Standing is a tenant's part in one round of the rule.
type Standing int8

const (
	// Hold sits the round out with its credit kept (a maintenance run in
	// flight, a retry backing off, a deferral under load).
	Hold Standing = iota
	// Idle has nothing to do: its credit drops to zero.
	Idle
	// Ready competes: its credit grows by its weight.
	Ready
)

// Pick runs one round of the rule over tenants, asking standing for each
// one's share and part, and returns the winner — the zero T when no
// tenant is Ready.
func Pick[T any](tenants map[string]T, standing func(T) (*Share, Standing)) T {
	var best T
	var win *Share
	round := 0
	for _, t := range tenants {
		sh, st := standing(t)
		switch st {
		case Idle:
			sh.Credit = 0
			continue
		case Hold:
			continue
		}
		sh.Credit += sh.Weight
		round += sh.Weight
		if win == nil || sh.Credit > win.Credit || (sh.Credit == win.Credit && sh.Name < win.Name) {
			best, win = t, sh
		}
	}
	if win != nil {
		win.Credit -= round
	}
	return best
}

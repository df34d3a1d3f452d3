package pass

import "llhd/internal/ir"

// TRMap assigns each block of a control-flow unit to a Temporal Region
// (§4.3.1): a section of code that executes during one fixed point in
// physical time. wait instructions bound the regions.
type TRMap struct {
	Of    map[*ir.Block]int
	Count int
}

// SameTR reports whether two blocks share a temporal region.
func (t *TRMap) SameTR(a, b *ir.Block) bool { return t.Of[a] == t.Of[b] }

// TemporalRegions computes the TR assignment with the paper's three rules:
//
//  1. If any predecessor has a wait terminator, or this is the entry
//     block, generate a new TR.
//  2. If all predecessors have the same TR, inherit that TR.
//  3. If they have distinct TRs, generate a new TR.
//
// The rules are iterated to a fixed point to handle loops within a region.
// Blocks are worked on by their position in the unit; block i reserves
// fresh id i, and the ids are compacted in block order at the end.
func TemporalRegions(u *ir.Unit) *TRMap {
	n := len(u.Blocks)
	t := &TRMap{Of: make(map[*ir.Block]int, n)}
	if n == 0 {
		return t
	}
	for i, b := range u.Blocks {
		t.Of[b] = i
	}
	preds := make([][]int, n)
	waitPred := make([]bool, n)
	for i, b := range u.Blocks {
		term := b.Terminator()
		for _, s := range b.Succs() {
			if si, ok := t.Of[s]; ok {
				preds[si] = append(preds[si], i)
				waitPred[si] = waitPred[si] || term.Op == ir.OpWait
			}
		}
	}

	const unassigned = -1
	assign := make([]int, n)
	for i := range assign {
		assign[i] = unassigned
	}
	for iter := 0; iter <= n+1; iter++ {
		changed := false
		for i := range u.Blocks {
			want := i // fresh: rule 1, rule 3, or no predecessor assigned yet
			if i != 0 && !waitPred[i] {
				// Rule 2: inherit the one TR the assigned predecessors
				// share; an unassigned predecessor is corrected by a later
				// iteration.
				inherit, distinct := unassigned, false
				for _, p := range preds[i] {
					switch tr := assign[p]; {
					case tr == unassigned:
					case inherit == unassigned:
						inherit = tr
					case tr != inherit:
						distinct = true
					}
				}
				if inherit != unassigned && !distinct {
					want = inherit
				}
			}
			if assign[i] != want {
				assign[i] = want
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Compact ids in block order.
	remap := make([]int, n)
	for i := range remap {
		remap[i] = unassigned
	}
	for i, b := range u.Blocks {
		id := assign[i]
		if remap[id] == unassigned {
			remap[id] = t.Count
			t.Count++
		}
		t.Of[b] = remap[id]
	}
	return t
}

// ExitBlocks returns, per TR, the blocks whose terminator leaves the
// region (a wait, halt, ret, or a branch into a different TR).
func (t *TRMap) ExitBlocks(u *ir.Unit) map[int][]*ir.Block {
	out := map[int][]*ir.Block{}
	for _, b := range u.Blocks {
		term := b.Terminator()
		if term == nil {
			continue
		}
		exits := false
		switch term.Op {
		case ir.OpWait, ir.OpHalt, ir.OpRet, ir.OpUnreachable:
			exits = true
		case ir.OpBr:
			for _, d := range term.Dests {
				if t.Of[d] != t.Of[b] {
					exits = true
				}
			}
		}
		if exits {
			out[t.Of[b]] = append(out[t.Of[b]], b)
		}
	}
	return out
}

package ir

// DomTree is a dominator tree over a unit's CFG, computed with the
// Cooper-Harvey-Kennedy iterative algorithm. Reachable blocks are numbered
// in reverse postorder, and the tree is kept as slices indexed by that
// number; one map turns a block into its number.
type DomTree struct {
	num  map[*Block]int32 // reverse postorder number of each reachable block
	rpo  []*Block         // number -> block
	idom []int32          // number -> immediate dominator's number; entry is 0 and maps to itself
}

// NewDomTree computes the dominator tree of u.
func NewDomTree(u *Unit) *DomTree {
	t := &DomTree{num: make(map[*Block]int32, len(u.Blocks))}
	entry := u.Entry()
	if entry == nil {
		return t
	}

	// Reverse postorder over reachable blocks. A block is marked -1 while
	// the walk visits it and renumbered once the postorder is known.
	var walk func(b *Block)
	walk = func(b *Block) {
		t.num[b] = -1
		for _, s := range b.Succs() {
			if _, seen := t.num[s]; !seen {
				walk(s)
			}
		}
		t.rpo = append(t.rpo, b)
	}
	walk(entry)
	n := len(t.rpo)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		t.rpo[i], t.rpo[j] = t.rpo[j], t.rpo[i]
	}
	for i, b := range t.rpo {
		t.num[b] = int32(i)
	}

	// Predecessor numbers over the unit's own reachable blocks.
	preds := make([][]int32, n)
	for _, b := range u.Blocks {
		bn, ok := t.num[b]
		if !ok {
			continue
		}
		for _, s := range b.Succs() {
			sn := t.num[s]
			preds[sn] = append(preds[sn], bn)
		}
	}

	t.idom = make([]int32, n)
	for i := range t.idom {
		t.idom[i] = -1 // not yet processed
	}
	t.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for b := int32(1); b < int32(n); b++ {
			newIdom := int32(-1)
			for _, p := range preds[b] {
				if t.idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && t.idom[b] != newIdom {
				t.idom[b] = newIdom
				changed = true
			}
		}
	}
	return t
}

func (t *DomTree) intersect(a, b int32) int32 {
	for a != b {
		for a > b {
			a = t.idom[a]
		}
		for b > a {
			b = t.idom[b]
		}
	}
	return a
}

// IDom returns the immediate dominator of b (the entry dominates itself).
// It returns nil for unreachable blocks.
func (t *DomTree) IDom(b *Block) *Block {
	bn, ok := t.num[b]
	if !ok {
		return nil
	}
	return t.rpo[t.idom[bn]]
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	an, aok := t.num[a]
	bn, bok := t.num[b]
	if !aok || !bok {
		return false
	}
	// A dominator precedes the blocks it dominates in reverse postorder.
	for bn > an {
		bn = t.idom[bn]
	}
	return bn == an
}

// CommonDominator returns the closest block dominating both a and b, or nil
// if either is unreachable.
func (t *DomTree) CommonDominator(a, b *Block) *Block {
	an, aok := t.num[a]
	bn, bok := t.num[b]
	if !aok || !bok {
		return nil
	}
	return t.rpo[t.intersect(an, bn)]
}

// Reachable reports whether b is reachable from the entry.
func (t *DomTree) Reachable(b *Block) bool {
	_, ok := t.num[b]
	return ok
}

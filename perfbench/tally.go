package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
)

// tally counts attempted and failed jobs and the per-sweep counters
// that must repeat exactly. It is shared by the two serve-stream
// clients, so every method locks.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reported  int
	// counts[name][sweep] is the sweep's total for an exact-repeat
	// counter such as sim.deltas.
	counts map[string][]int64
}

func newTally() *tally { return &tally{counts: map[string][]int64{}} }

// maxReported bounds the failure diagnostics written to stderr.
const maxReported = 10

// job records one attempted job and, when err is non-nil, its failure.
func (t *tally) job(design string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.fail(fmt.Sprintf("%s: %v", design, err))
	}
}

// fail records one failure that is not a job of its own, such as a
// counter that did not repeat. The caller holds t.mu.
func (t *tally) fail(msg string) {
	t.failed++
	if t.reported < maxReported {
		t.reported++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
	}
}

// add adds n to counter name for sweep.
func (t *tally) add(sweep int, name string, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counts[name]
	for len(c) <= sweep {
		c = append(c, 0)
	}
	c[sweep] += n
	t.counts[name] = c
}

// checkRepeat fails every sweep whose counters differ from the first
// sweep's: the counted work is deterministic, so a mismatch is a bug,
// not noise.
func (t *tally) checkRepeat(sweeps int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.counts))
	for name := range t.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := t.counts[name]
		for len(c) < sweeps {
			c = append(c, 0)
		}
		for s := 1; s < len(c); s++ {
			if c[s] != c[0] {
				t.fail(fmt.Sprintf("counter %s: sweep %d counted %d, sweep 0 counted %d", name, s, c[s], c[0]))
			}
		}
		t.counts[name] = c
	}
}

// first returns counter name's value in sweep 0.
func (t *tally) first(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.counts[name]; len(c) > 0 {
		return c[0]
	}
	return 0
}

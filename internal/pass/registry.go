package pass

import (
	"fmt"
	"sort"
	"strings"
)

// Info describes one registered pass: its canonical name (always equal to
// the Pass.Name() of the constructed pass), the accepted aliases, and its
// constructor.
//
// TemporalRegions (tr.go) and the DNF builder (dnf.go) are analyses used
// by tcm/tcfe/deseq, not standalone passes, so they do not appear here.
type Info struct {
	Name    string
	Aliases []string
	New     func() Pass
}

// registry lists the §4 passes in canonical order: the basic cleanups
// first, then the lowering passes in LoweringPipeline order, then the
// structural cleanups of Figure 5.
var registry = []Info{
	{Name: "inline", New: Inline},
	{Name: "mem2reg", New: Mem2Reg},
	{Name: "constant-fold", Aliases: []string{"cf", "fold"}, New: ConstantFold},
	{Name: "inst-simplify", Aliases: []string{"is", "simplify"}, New: InstSimplify},
	{Name: "cse", New: CSE},
	{Name: "dce", New: DCE},
	{Name: "ecm", New: ECM},
	{Name: "tcm", New: TCM},
	{Name: "tcfe", New: TCFE},
	{Name: "process-lowering", Aliases: []string{"pl"}, New: ProcessLowering},
	{Name: "deseq", New: Desequentialize},
	{Name: "inline-entities", Aliases: []string{"flatten"}, New: InlineEntities},
	{Name: "signal-forwarding", New: SignalForwarding},
}

// Registry returns the pass registry in canonical order. The slice is a
// copy; callers may reorder it freely.
//
// Any ordering is verify-legal: every registered pass is a semantic no-op
// on the unit kinds it does not transform (each unit pass's kinds, each
// module pass's own kind gate) and on shapes it does not recognise. That
// property is exactly what the pipeline fuzzer (internal/fuzz, llhd-fuzz
// -pipeline) exercises: random orderings must keep ir.Verify green after
// every application and preserve observable behaviour against the
// unoptimized reference.
func Registry() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	return out
}

// Names returns the canonical pass names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, info := range registry {
		names[i] = info.Name
	}
	return names
}

// ByName resolves a canonical pass name or alias to its registry entry.
func ByName(name string) (Info, bool) {
	for _, info := range registry {
		if info.Name == name {
			return info, true
		}
		for _, a := range info.Aliases {
			if a == name {
				return info, true
			}
		}
	}
	return Info{}, false
}

// LegalNames returns every accepted spelling — canonical names and
// aliases — sorted, for error messages.
func LegalNames() []string {
	var names []string
	for _, info := range registry {
		names = append(names, info.Name)
		names = append(names, info.Aliases...)
	}
	sort.Strings(names)
	return names
}

// FromNames builds a Pipeline from a list of pass names or aliases. An
// unknown name errors, listing the full legal set.
func FromNames(names []string) (*Pipeline, error) {
	pl := &Pipeline{Passes: make([]Pass, 0, len(names))}
	for _, name := range names {
		info, ok := ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown pass %q (legal: %s)",
				name, strings.Join(LegalNames(), ", "))
		}
		pl.Passes = append(pl.Passes, info.New())
	}
	return pl, nil
}

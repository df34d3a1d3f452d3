package bitcode_test

import (
	"fmt"
	"strings"
	"testing"

	"llhd/internal/bitcode"
	"llhd/internal/designs"
	"llhd/internal/moore"
)

// table2Encodings returns the bitcode of every Table 2 design as the
// frontend emits it.
func table2Encodings(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, d := range designs.All() {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			tb.Fatalf("%s: moore.Compile: %v", d.Name, err)
		}
		data, err := bitcode.Encode(m)
		if err != nil {
			tb.Fatalf("%s: Encode: %v", d.Name, err)
		}
		out = append(out, data)
	}
	return out
}

// decodePanic runs Decode and returns the recovered panic, if any.
// Decoding untrusted bytes may fail, but only with an error.
func decodePanic(data []byte) (p any) {
	defer func() { p = recover() }()
	_, _ = bitcode.Decode(data)
	return nil
}

// FuzzDecodeBitcode feeds arbitrary bytes to Decode, which reads cache
// artifacts from disk and must reject corrupt input with an error, never
// a panic. Seeded with the Table 2 encodings.
func FuzzDecodeBitcode(f *testing.F) {
	for _, data := range table2Encodings(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p := decodePanic(data); p != nil {
			t.Fatalf("Decode panicked: %v", p)
		}
	})
}

// TestDecodeFlipSweep is the deterministic regression behind
// FuzzDecodeBitcode: flip the low bit of every flipStride-th byte of each
// Table 2 encoding and require Decode to return (an error or a module)
// without panicking. One-off value references and table indices, i1
// widths turned to zero, and shifted counts are all in the sweep.
func TestDecodeFlipSweep(t *testing.T) {
	const (
		mask       = 0x01
		flipStride = 9
	)
	var panics []string
	flips := 0
	for di, data := range table2Encodings(t) {
		buf := make([]byte, len(data))
		for i := 0; i < len(data); i += flipStride {
			copy(buf, data)
			buf[i] ^= mask
			flips++
			if p := decodePanic(buf); p != nil {
				panics = append(panics, fmt.Sprintf("design %d byte %d: %v", di, i, p))
			}
		}
	}
	if len(panics) > 0 {
		n := len(panics)
		if n > 5 {
			panics = panics[:5]
		}
		t.Fatalf("Decode panicked on %d of %d flipped encodings, e.g.:\n%s", n, flips, strings.Join(panics, "\n"))
	}
	t.Logf("%d flipped encodings decoded without panicking", flips)
}

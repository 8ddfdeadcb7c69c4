package vhadoop_test

// Exact-equality artifact comparison shared by the determinism suites: a
// run is flattened into named digests (trace, metrics, spans, output, ...)
// and two runs must agree on every one of them byte for byte. There are
// no tolerances; the first divergence is reported precisely.

import (
	"fmt"
	"strings"
	"testing"
)

// digest is one labelled artifact of a run: its name ("trace", "output",
// "metrics", ...) and its exact bytes.
type digest struct {
	Name string
	Data string
}

// fingerprint returns a short stable FNV-1a fingerprint of s, for failure
// messages where quoting the whole artifact would be noise.
func fingerprint(s string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return fmt.Sprintf("%016x", h)
}

// firstDiff locates the first line where a and b differ. ok is false when
// the strings are identical.
func firstDiff(a, b string) (line int, aLine, bLine string, ok bool) {
	if a == b {
		return 0, "", "", false
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1, al[i], bl[i], true
		}
	}
	// One is a prefix of the other; report the first extra line.
	if len(al) < len(bl) {
		return len(al) + 1, "<end of artifact>", bl[len(al)], true
	}
	return len(bl) + 1, al[len(bl)], "<end of artifact>", true
}

// requireIdentical asserts that every artifact of got matches its want
// counterpart byte for byte. Artifacts are matched by Name; a name present
// on one side only is itself a failure.
func requireIdentical(t testing.TB, label string, want, got []digest) {
	t.Helper()
	gotBy := make(map[string]string, len(got))
	for _, d := range got {
		gotBy[d.Name] = d.Data
	}
	seen := make(map[string]bool, len(want))
	for _, w := range want {
		seen[w.Name] = true
		g, found := gotBy[w.Name]
		if !found {
			t.Errorf("%s: artifact %q missing from the second run", label, w.Name)
			continue
		}
		if line, wl, gl, diff := firstDiff(w.Data, g); diff {
			t.Errorf("%s: artifact %q diverges at line %d\n  first:  %s\n  second: %s\n  (fingerprints %s vs %s, %d vs %d bytes)",
				label, w.Name, line, clip(wl), clip(gl),
				fingerprint(w.Data), fingerprint(g), len(w.Data), len(g))
		}
	}
	for _, d := range got {
		if !seen[d.Name] {
			t.Errorf("%s: artifact %q present only in the second run", label, d.Name)
		}
	}
}

// clip bounds one reported line so a failure message stays readable.
func clip(s string) string {
	const max = 220
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}

package analysis

import (
	"strings"
	"testing"
)

// FuzzAllowParser drives the //lint:allow comment parser with arbitrary
// comment text: it must never panic, and its classification must stay
// consistent (an accepted allow always carries the prefix; name and
// reason never contain leading/trailing space).
func FuzzAllowParser(f *testing.F) {
	f.Add("//lint:allow errcheck teardown of an abandoned connection")
	f.Add("//lint:allow deadline")
	f.Add("//lint:allow")
	f.Add("// ordinary comment")
	f.Add("//lint:allowdeadline smashed together")
	f.Add("//lint:allow   deadline   spaced   reason  ")
	f.Add("//lint:allow\tdeadline\ttabbed")
	f.Add("//lint:allow \x00 nul bytes")
	f.Fuzz(func(t *testing.T, text string) {
		name, reason, ok := parseAllow(text)
		wantOK := text == allowPrefix ||
			strings.HasPrefix(text, allowPrefix+" ") ||
			strings.HasPrefix(text, allowPrefix+"\t")
		if ok != wantOK {
			t.Fatalf("parseAllow(%q) ok = %v, want %v", text, ok, wantOK)
		}
		if !ok {
			return
		}
		if reason != strings.TrimSpace(reason) {
			t.Fatalf("unnormalized reason %q from %q", reason, text)
		}
		for _, s := range []string{name, reason} {
			for _, r := range s {
				if r == '\n' || r == '\r' || r == '\t' {
					t.Fatalf("control character leaked into %q from %q", s, text)
				}
			}
		}
	})
}

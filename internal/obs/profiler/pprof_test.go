package profiler

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"runtime/pprof"
	"testing"
)

func writeRuntimeGoroutineProfile(t *testing.T, w io.Writer) {
	t.Helper()
	if err := pprof.Lookup("goroutine").WriteTo(w, 0); err != nil {
		t.Fatalf("goroutine profile: %v", err)
	}
}

// --- synthetic profile encoder (tests only) ---
//
// Emits just enough valid profile.proto wire format to exercise the
// parser deterministically: a string table, sample types, functions,
// locations (with inline chains), and samples with packed value arrays.

type synthProfile struct {
	strings []string // index 0 must be ""
	strIdx  map[string]uint64
	buf     bytes.Buffer
}

func newSynth() *synthProfile {
	s := &synthProfile{strIdx: map[string]uint64{}}
	s.istr("") // string table slot 0 is always the empty string
	return s
}

func (s *synthProfile) istr(v string) uint64 {
	if idx, ok := s.strIdx[v]; ok {
		return idx
	}
	idx := uint64(len(s.strings))
	s.strings = append(s.strings, v)
	s.strIdx[v] = idx
	return idx
}

func varint(b *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func tag(b *bytes.Buffer, field, wire int) { varint(b, uint64(field<<3|wire)) }

func msg(b *bytes.Buffer, field int, body []byte) {
	tag(b, field, 2)
	varint(b, uint64(len(body)))
	b.Write(body)
}

func (s *synthProfile) sampleType(typ, unit string) {
	var vt bytes.Buffer
	tag(&vt, fValueTypeType, 0)
	varint(&vt, s.istr(typ))
	tag(&vt, fValueTypeUnit, 0)
	varint(&vt, s.istr(unit))
	msg(&s.buf, fProfileSampleType, vt.Bytes())
}

func (s *synthProfile) function(id uint64, name string) {
	var fn bytes.Buffer
	tag(&fn, fFunctionID, 0)
	varint(&fn, id)
	tag(&fn, fFunctionName, 0)
	varint(&fn, s.istr(name))
	msg(&s.buf, fProfileFunction, fn.Bytes())
}

func (s *synthProfile) location(id uint64, funcIDs ...uint64) {
	var loc bytes.Buffer
	tag(&loc, fLocationID, 0)
	varint(&loc, id)
	for _, fid := range funcIDs {
		var line bytes.Buffer
		tag(&line, fLineFunctionID, 0)
		varint(&line, fid)
		msg(&loc, fLocationLine, line.Bytes())
	}
	msg(&s.buf, fProfileLocation, loc.Bytes())
}

// sample emits a packed-encoded sample (the form the Go runtime writes).
func (s *synthProfile) sample(locs []uint64, values []int64) {
	var sm, packedLocs, packedVals bytes.Buffer
	for _, l := range locs {
		varint(&packedLocs, l)
	}
	for _, v := range values {
		varint(&packedVals, uint64(v))
	}
	msg(&sm, fSampleLocationID, packedLocs.Bytes())
	msg(&sm, fSampleValue, packedVals.Bytes())
	msg(&s.buf, fProfileSample, sm.Bytes())
}

// bytesGz finalizes the message (string table last, like a writer that
// interns as it goes) and gzips it, matching runtime/pprof output.
func (s *synthProfile) bytesGz(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	out.Write(s.buf.Bytes())
	for _, str := range s.strings {
		msg(&out, fProfileStringTab, []byte(str))
	}
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	if _, err := w.Write(out.Bytes()); err != nil {
		t.Fatalf("gzip: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}
	return gz.Bytes()
}

// cpuSynth builds a two-column (samples/count, cpu/nanoseconds) profile
// from (stack, nanos) pairs. Stacks are leaf-first function names.
func cpuSynth(t *testing.T, stacks map[string]int64) []byte {
	t.Helper()
	s := newSynth()
	s.sampleType("samples", "count")
	s.sampleType("cpu", "nanoseconds")
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	var nextFunc, nextLoc uint64
	// Deterministic iteration: bytes must not depend on map order for
	// golden-style assertions, so assign IDs in sorted-key order.
	keys := make([]string, 0, len(stacks))
	for k := range stacks {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, stack := range keys {
		for _, name := range splitStack(stack) {
			if _, ok := funcID[name]; !ok {
				nextFunc++
				funcID[name] = nextFunc
				s.function(nextFunc, name)
				nextLoc++
				locID[name] = nextLoc
				s.location(nextLoc, nextFunc)
			}
		}
	}
	for _, stack := range keys {
		names := splitStack(stack)
		locs := make([]uint64, len(names))
		for i, name := range names {
			locs[i] = locID[name]
		}
		s.sample(locs, []int64{1, stacks[stack]})
	}
	return s.bytesGz(t)
}

func splitStack(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '>' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// --- parser tests ---

func TestParseSyntheticRoundTrip(t *testing.T) {
	// "hot>main" = hot (leaf) called from main.
	raw := cpuSynth(t, map[string]int64{
		"hot>main":  700,
		"cold>main": 300,
	})
	p, err := ParseProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if len(p.SampleTypes) != 2 || p.SampleTypes[1].Type != "cpu" || p.SampleTypes[1].Unit != "nanoseconds" {
		t.Fatalf("sample types = %+v", p.SampleTypes)
	}
	if len(p.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(p.Samples))
	}
	tab, err := p.Table("")
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	if tab.SampleType != "cpu/nanoseconds" {
		t.Fatalf("sample type label = %q", tab.SampleType)
	}
	if tab.Total != 1000 {
		t.Fatalf("total = %d, want 1000", tab.Total)
	}
	want := map[string]struct{ flat, cum float64 }{
		"main": {0, 1.0},
		"hot":  {0.7, 0.7},
		"cold": {0.3, 0.3},
	}
	if len(tab.Funcs) != len(want) {
		t.Fatalf("funcs = %+v, want %d entries", tab.Funcs, len(want))
	}
	for _, f := range tab.Funcs {
		w, ok := want[f.Name]
		if !ok {
			t.Fatalf("unexpected function %q", f.Name)
		}
		if math.Abs(f.Cum-w.cum) > 1e-12 || math.Abs(f.Flat-w.flat) > 1e-12 {
			t.Fatalf("%s: flat=%v cum=%v, want flat=%v cum=%v", f.Name, f.Flat, f.Cum, w.flat, w.cum)
		}
	}
	// main has the highest cumulative share, so it sorts first.
	if tab.Funcs[0].Name != "main" {
		t.Fatalf("sort order = %+v", tab.Funcs)
	}
}

func TestTableRecursionNoDoubleCount(t *testing.T) {
	// A self-recursive stack: f called from f called from main. f's
	// cumulative share must be charged once per sample, not per frame.
	raw := cpuSynth(t, map[string]int64{"f>f>main": 100})
	p, err := ParseProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	tab, err := p.Table("cpu")
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	for _, f := range tab.Funcs {
		if f.Cum > 1.0+1e-12 {
			t.Fatalf("%s cumulative share %v > 1 — recursion double-counted", f.Name, f.Cum)
		}
	}
}

func TestTableNamedSampleType(t *testing.T) {
	raw := cpuSynth(t, map[string]int64{"hot>main": 900})
	p, err := ParseProfile(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	tab, err := p.Table("samples")
	if err != nil {
		t.Fatalf("Table(samples): %v", err)
	}
	if tab.Total != 1 {
		t.Fatalf("samples total = %d, want 1", tab.Total)
	}
	if _, err := p.Table("nonexistent"); err == nil {
		t.Fatal("Table(nonexistent) should error")
	}
}

func TestParseRealGoroutineProfile(t *testing.T) {
	// The real thing: whatever the runtime writes for this test binary
	// must parse and contain at least this goroutine.
	var buf bytes.Buffer
	writeRuntimeGoroutineProfile(t, &buf)
	p, err := ParseProfile(&buf)
	if err != nil {
		t.Fatalf("ParseProfile(runtime goroutine profile): %v", err)
	}
	if len(p.Samples) == 0 {
		t.Fatal("runtime goroutine profile has no samples")
	}
	tab, err := p.Table("")
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	if tab.Total == 0 || len(tab.Funcs) == 0 {
		t.Fatalf("empty table from a live goroutine profile: %+v", tab)
	}
}

// --- diff tests ---

func mkTable(cum map[string]float64) *ShareTable {
	t := &ShareTable{SampleType: "cpu/nanoseconds", Total: 1000}
	for name, c := range cum {
		t.Funcs = append(t.Funcs, FuncShare{Name: name, Cum: c})
	}
	return t
}

func TestDiffFlagsRegression(t *testing.T) {
	oldT := mkTable(map[string]float64{"kernel": 0.60, "gc": 0.10})
	newT := mkTable(map[string]float64{"kernel": 0.40, "gc": 0.10, "slowpath": 0.35})
	res := Diff(oldT, newT, DiffOptions{})
	if res.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (slowpath): %+v", res.Regressions, res.Deltas)
	}
	if res.Deltas[0].Name != "slowpath" || !res.Deltas[0].Regress {
		t.Fatalf("top delta = %+v, want slowpath regression", res.Deltas[0])
	}
	// kernel shrank — improvement, never a regression.
	for _, d := range res.Deltas {
		if d.Name == "kernel" && d.Regress {
			t.Fatal("a shrinking function was flagged as regression")
		}
	}
}

func TestDiffMinShareFloor(t *testing.T) {
	// A function that grew 100x but stays under the floor is tail noise.
	oldT := mkTable(map[string]float64{"kernel": 0.9})
	newT := mkTable(map[string]float64{"kernel": 0.9, "tiny": 0.04})
	res := Diff(oldT, newT, DiffOptions{ThresholdPP: 1})
	if res.Regressions != 0 {
		t.Fatalf("regressions = %d, want 0 (tiny is under MinShare): %+v", res.Regressions, res.Deltas)
	}
}

func TestDiffStableOnEmptyProfiles(t *testing.T) {
	// The anomaly-vs-quiet diff in CI must have a stable exit code even
	// when a short window caught zero samples: all shares 0, no
	// regressions, deterministically.
	empty := &ShareTable{SampleType: "cpu/nanoseconds"}
	res := Diff(empty, empty, DiffOptions{})
	if res.Regressions != 0 || len(res.Deltas) != 0 {
		t.Fatalf("empty diff = %+v, want no deltas", res)
	}
	res = Diff(empty, mkTable(map[string]float64{"f": 0.5}), DiffOptions{})
	if res.Regressions != 1 {
		t.Fatalf("0 -> 50pp growth should flag: %+v", res)
	}
}

func TestDiffTopKeepsRegressions(t *testing.T) {
	oldT := mkTable(map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	newT := mkTable(map[string]float64{"a": 0.1, "b": 0.2, "c": 0.2, "bad": 0.5})
	res := Diff(oldT, newT, DiffOptions{Top: 1})
	found := false
	for _, d := range res.Deltas {
		if d.Name == "bad" && d.Regress {
			found = true
		}
	}
	if !found {
		t.Fatalf("Top truncation dropped the regression row: %+v", res.Deltas)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/baseline.json"
	tab := mkTable(map[string]float64{"kernel": 0.62, "gc": 0.11})
	tab.Total = 123456
	if err := WriteShareTable(path, tab, "abc123"); err != nil {
		t.Fatalf("WriteShareTable: %v", err)
	}
	got, err := ReadShareTable(path)
	if err != nil {
		t.Fatalf("ReadShareTable: %v", err)
	}
	if got.Total != tab.Total || len(got.Funcs) != len(tab.Funcs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, tab)
	}
	res := Diff(tab, got, DiffOptions{})
	if res.Regressions != 0 {
		t.Fatalf("self-diff has regressions: %+v", res)
	}
}

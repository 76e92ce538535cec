package bench

import (
	"strings"
	"testing"
	"time"
)

func TestMeasure(t *testing.T) {
	calls := 0
	tm := Measure(5, 2, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 7 {
		t.Fatalf("fn called %d times, want 7 (2 warmup + 5 measured)", calls)
	}
	if tm.Reps != 5 {
		t.Fatalf("Reps = %d", tm.Reps)
	}
	if tm.Min <= 0 || tm.Mean < tm.Min || tm.Max < tm.Mean {
		t.Fatalf("ordering violated: min=%v mean=%v max=%v", tm.Min, tm.Mean, tm.Max)
	}
}

func TestMeasurePanicsOnZeroReps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Measure(0, 0, func() {})
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100*time.Millisecond, 10*time.Millisecond); got != 10 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := Speedup(time.Second, 0); got != 1e9 {
		t.Fatalf("degenerate Speedup = %v", got)
	}
}

func TestEfficiency(t *testing.T) {
	if got := Efficiency(8, 8, 1); got != 1 {
		t.Fatalf("perfect efficiency = %v", got)
	}
	if got := Efficiency(4, 8, 1); got != 0.5 {
		t.Fatalf("half efficiency = %v", got)
	}
	if got := Efficiency(4, 0, 1); got != 0 {
		t.Fatalf("degenerate efficiency = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "n", "time", "speedup")
	tab.AddRow(16, 1500*time.Microsecond, 12.3456)
	tab.AddRow(1024, time.Second, 0.5)
	if tab.Rows() != 2 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
	var sb strings.Builder
	if _, err := tab.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== demo ==", "n", "speedup", "12.35", "1024", "1.5ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: header and rule line equal length.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header/rule misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("plain", `quote"and,comma`)
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nplain,\"quote\"\"and,comma\"\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dilution"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestPairTornSlotFallsBack: a save killed part way leaves the slot it was
// overwriting as the new checkpoint's first bytes over the old one's rest,
// or cut short, or with a byte wrong. Whichever it is, and wherever the cut
// falls on a 4 KiB boundary, loading the pair resumes from the previous
// generation, with marginals bit-identical to a load of that save's bytes,
// and the next save overwrites the torn slot. With both slots torn the
// error names both files.
func TestPairTornSlotFallsBack(t *testing.T) {
	pool := newTestPool(t)
	sess := newDenseSession(t, pool, 12, false)
	oracle := workload.NewOracle(workload.Draw(workload.UniformRisks(12, 0.2), rng.New(3)), dilution.Binary{Sens: 0.95, Spec: 0.99}, rng.New(4))
	ckpt := &Pair{Path: filepath.Join(t.TempDir(), "c.ckpt")}
	save := func() []byte {
		t.Helper()
		if err := sess.SavePair(ckpt); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(ckpt.SlotFile(ckpt.Slot))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	step := func() {
		t.Helper()
		if err := sess.Step(oracle.Test); err != nil || sess.Done() {
			t.Fatalf("step: done %v, %v", sess.Done(), err)
		}
	}
	old := save() // generation 1, slot 0
	step()
	prev := save() // generation 2, slot 1
	want, err := LoadSession(bytes.NewReader(prev), pool, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	step()
	newest := save() // generation 3, slot 0, over generation 1
	if ckpt.Slot != 0 || ckpt.Gen != 3 {
		t.Fatalf("third save went to slot %d as generation %d", ckpt.Slot, ckpt.Gen)
	}

	torn := map[string][]byte{}
	for cut := 4096; cut < len(newest); cut += 4096 {
		over := append([]byte(nil), newest[:cut]...)
		if cut < len(old) {
			over = append(over, old[cut:]...)
		}
		torn["over the old slot at "+strconv.Itoa(cut)] = over
		torn["cut at "+strconv.Itoa(cut)] = newest[:cut]
	}
	for _, i := range []int{len(checkpointMagic) + headerPrefix, len(newest) / 2, len(newest) - 1} {
		flipped := append([]byte(nil), newest...)
		flipped[i] ^= 0x10
		torn["byte "+strconv.Itoa(i)+" flipped"] = flipped
	}
	for name, raw := range torn {
		if err := os.WriteFile(ckpt.SlotFile(0), raw, 0o600); err != nil {
			t.Fatal(err)
		}
		p := &Pair{Path: ckpt.Path}
		got, err := LoadPair(p, pool, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Slot != 1 || p.Gen != 2 || got.Stage() != want.Stage() {
			t.Fatalf("%s: resumed stage %d from slot %d, generation %d; want stage %d from slot 1, generation 2", name, got.Stage(), p.Slot, p.Gen, want.Stage())
		}
		for i := range want.marg {
			if math.Float64bits(got.marg[i]) != math.Float64bits(want.marg[i]) {
				t.Fatalf("%s: subject %d's marginal %v, the previous save's %v", name, i, got.marg[i], want.marg[i])
			}
		}
		// The torn slot is the next one written, and the pair is whole again.
		if err := got.SavePair(p); err != nil || p.Slot != 0 || p.Gen != 3 {
			t.Fatalf("%s: save after the fallback went to slot %d as generation %d: %v", name, p.Slot, p.Gen, err)
		}
		back, err := LoadPair(&Pair{Path: ckpt.Path}, pool, nil, nil)
		if err != nil || back.Stage() != want.Stage() {
			t.Fatalf("%s: reload after the repair: %v", name, err)
		}
		back.Close()
		got.Close()
	}

	if err := os.WriteFile(ckpt.SlotFile(0), newest[:100], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(ckpt.SlotFile(1), int64(len(prev)-1)); err != nil {
		t.Fatal(err)
	}
	_, err = LoadPair(&Pair{Path: ckpt.Path}, pool, nil, nil)
	if err == nil || !strings.Contains(err.Error(), ckpt.SlotFile(0)) || !strings.Contains(err.Error(), ckpt.SlotFile(1)) {
		t.Fatalf("both slots torn: %v, want both files named", err)
	}
}

// TestPairShorterRewriteLoads: a save shorter than what its slot held
// before leaves the old checkpoint's end behind its trailer. The pair's
// read stops at the trailer and loads it, whether the pair knows its newest
// slot or reads both; the stream loader still refuses those bytes. A load
// that expects another generation than the slot holds is refused.
func TestPairShorterRewriteLoads(t *testing.T) {
	pool := newTestPool(t)
	risks := []float64{0.02, 0.02, 0.5, 0.02, 0.3, 0.02, 0.02, 0.05}
	oracle := workload.NewOracle(workload.Draw(risks, rng.New(81)), dilution.Ideal{}, rng.New(82))
	sess, err := NewSession(pool, Config{Risks: risks, Response: dilution.Ideal{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ckpt := &Pair{Path: filepath.Join(t.TempDir(), "c.ckpt")}
	for range 2 { // generations 1 (slot 0) and 2 (slot 1), all 8 subjects live
		if err := sess.SavePair(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	long, err := os.Stat(ckpt.SlotFile(0))
	if err != nil {
		t.Fatal(err)
	}
	for sess.Remaining() == len(risks) {
		if err := sess.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.SavePair(ckpt); err != nil || ckpt.Slot != 0 {
		t.Fatalf("third save went to slot %d: %v", ckpt.Slot, err)
	}
	raw, err := os.ReadFile(ckpt.SlotFile(0))
	if err != nil {
		t.Fatal(err)
	}
	short := len(saveSession(t, sess))
	if int64(len(raw)) != long.Size() || short >= len(raw) {
		t.Fatalf("slot 0 holds %d bytes for a %d-byte checkpoint; it held %d", len(raw), short, long.Size())
	}
	for _, p := range []*Pair{{Path: ckpt.Path, Slot: 0, Gen: 3}, {Path: ckpt.Path}} {
		back, err := LoadPair(p, pool, nil, nil)
		if err != nil {
			t.Fatalf("%+v: %v", *p, err)
		}
		if p.Gen != 3 || back.Remaining() != sess.Remaining() || back.Stage() != sess.Stage() {
			t.Fatalf("%+v: resumed %d remaining at stage %d, saved %d at %d", *p, back.Remaining(), back.Stage(), sess.Remaining(), sess.Stage())
		}
		back.Close()
	}
	if _, err := LoadSession(bytes.NewReader(raw), pool, nil, nil); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("the stream loader on a slot with bytes past its trailer: %v", err)
	}
	if _, err := LoadPair(&Pair{Path: ckpt.Path, Slot: 0, Gen: 5}, pool, nil, nil); err == nil || !strings.Contains(err.Error(), "generation 3") {
		t.Fatalf("a pair expecting generation 5 of a slot holding 3: %v", err)
	}
}

// TestPairFirstSaveStartsAfresh: a pair value that has not been saved or
// loaded starts the pair over at generation 1 in slot 0, so the files of an
// earlier campaign under the same path, of higher generations, do not
// outrank it.
func TestPairFirstSaveStartsAfresh(t *testing.T) {
	pool := newTestPool(t)
	path := filepath.Join(t.TempDir(), "c.ckpt")
	stale := &Pair{Path: path}
	for range 3 {
		if err := newDenseSession(t, pool, 6, false).SavePair(stale); err != nil {
			t.Fatal(err)
		}
	}
	fresh := newDenseSession(t, pool, 4, true)
	p := &Pair{Path: path}
	if err := fresh.SavePair(p); err != nil || p.Slot != 0 || p.Gen != 1 {
		t.Fatalf("first save went to slot %d as generation %d: %v", p.Slot, p.Gen, err)
	}
	if _, err := os.Stat(p.SlotFile(1)); !os.IsNotExist(err) {
		t.Fatalf("the earlier pair's slot 1 survived a fresh first save: %v", err)
	}
	back, err := LoadPair(&Pair{Path: path}, pool, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Remaining() != 4 || back.Outstanding() == nil {
		t.Fatalf("loaded %d subjects with proposal %v, want the fresh 4-subject session's", back.Remaining(), back.Outstanding())
	}
}

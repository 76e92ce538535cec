package main

import (
	"os"
	"path/filepath"
	"testing"

	sbgt "repro"
)

// TestSaveTornResumesEarlierStage: -save checkpoints every stage into a
// pair; a run killed while writing the last stage's checkpoint leaves that
// slot torn, and -resume picks the campaign up at the stage before.
func TestSaveTornResumesEarlierStage(t *testing.T) {
	eng := sbgt.NewEngine(1)
	defer eng.Close()
	risks := sbgt.UniformRisks(8, 0.1)
	resp := sbgt.BinaryTest(0.95, 0.99)
	r := sbgt.NewRand(3)
	oracle := sbgt.NewOracle(sbgt.DrawPopulation(risks, r), resp, r)
	strategy := sbgt.HalvingStrategy(16, false)
	sess, err := eng.NewSession(sbgt.Config{Risks: risks, Response: resp, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ckpt := &sbgt.CheckpointPair{Path: filepath.Join(t.TempDir(), "ckpt")}
	if err := saveEachStage(sess, oracle.Test, ckpt); err != nil {
		t.Fatal(err)
	}
	last := sess.Stage()
	if last < 2 || ckpt.Gen != uint64(last) {
		t.Fatalf("campaign of %d stages saved %d times", last, ckpt.Gen)
	}
	newest := ckpt.SlotFile(ckpt.Slot)
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-1); err != nil {
		t.Fatal(err)
	}
	back, err := eng.LoadPair(&sbgt.CheckpointPair{Path: ckpt.Path}, strategy)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Stage() != last-1 || back.Done() {
		t.Fatalf("resumed at stage %d (done %v), want the earlier save's stage %d", back.Stage(), back.Done(), last-1)
	}
	if _, err := back.Run(oracle.Test); err != nil {
		t.Fatal(err)
	}
}

// TestSaveGoesOnInResumedPair: -save naming the file -resume read, under
// another spelling of the path, saves into the resumed pair after its
// generation, so the slot it resumed from stays until a later save; -save
// of another file starts a new pair.
func TestSaveGoesOnInResumedPair(t *testing.T) {
	eng := sbgt.NewEngine(1)
	defer eng.Close()
	risks := sbgt.UniformRisks(8, 0.1)
	resp := sbgt.BinaryTest(0.95, 0.99)
	r := sbgt.NewRand(5)
	oracle := sbgt.NewOracle(sbgt.DrawPopulation(risks, r), resp, r)
	strategy := sbgt.HalvingStrategy(16, false)
	sess, err := eng.NewSession(sbgt.Config{Risks: risks, Response: resp, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dir := t.TempDir()
	saved := &sbgt.CheckpointPair{Path: filepath.Join(dir, "ckpt")}
	for range 2 {
		if err := sess.Step(oracle.Test); err != nil {
			t.Fatal(err)
		}
		if err := sess.SavePair(saved); err != nil {
			t.Fatal(err)
		}
	}

	resumed := &sbgt.CheckpointPair{Path: dir + "/./ckpt"}
	back, err := eng.LoadPair(resumed, strategy)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if other := savePair(resumed, filepath.Join(dir, "other")); other == resumed || other.Gen != 0 {
		t.Fatalf("-save of another file got pair %+v, want a new one", other)
	}
	ckpt := savePair(resumed, filepath.Join(dir, "ckpt"))
	if ckpt != resumed {
		t.Fatalf("-save of the resumed file got pair %+v, want the resumed %+v", ckpt, resumed)
	}
	from := ckpt.SlotFile(ckpt.Slot)
	if err := back.Step(oracle.Test); err != nil {
		t.Fatal(err)
	}
	if err := back.SavePair(ckpt); err != nil {
		t.Fatal(err)
	}
	if ckpt.Gen != 3 || ckpt.SlotFile(ckpt.Slot) == from {
		t.Fatalf("save after resuming generation 2 wrote %+v over %s", ckpt, from)
	}
	if _, err := os.Stat(from); err != nil {
		t.Fatalf("slot resumed from: %v", err)
	}
}

// Command sbgt runs one simulated surveillance campaign end to end and
// prints the stage-by-stage narrative: pools selected, outcomes observed,
// classifications made, and the final operating characteristics.
//
// Usage:
//
//	sbgt [flags]
//
// Flags:
//
//	-n int          cohort size (default 16; max 30 dense/cluster, 64 sparse)
//	-prev float     prior infection risk per subject (default 0.05)
//	-profile string risk profile: uniform | beta | household (default uniform)
//	-assay string   response model: ideal | binary | hyperbolic | logistic | ct (default hyperbolic)
//	-backend string posterior backend: dense | sparse | cluster (default dense)
//	-eps float      sparse backend: relative truncation threshold (default 1e-9)
//	-execs int      cluster backend: local executors to start (default 2)
//	-exec-addrs string
//	                cluster backend: comma-separated external executor
//	                addresses (sbgt-exec processes); overrides -execs
//	-maxpool int    pool size cap (default 16)
//	-lookahead int  pools selected per stage, at most 8 (default 1; every backend)
//	-seed uint      RNG seed (default 1)
//	-workers int    engine workers (default GOMAXPROCS)
//	-quiet          only print the final summary
//
// Observability flags (shared across the sbgt commands):
//
//	-metrics-addr string  serve /metrics, /healthz, and pprof here
//	-log-level string     debug | info | warn | error (default info)
//	-trace-out string     write per-stage spans as NDJSON on exit
//	-cpuprofile string    write a CPU profile of the run (go tool pprof)
//	-memprofile string    write an allocation profile at exit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	sbgt "repro"
	"repro/internal/obs"
)

func main() {
	var (
		n         = flag.Int("n", 16, "cohort size (1..30)")
		prev      = flag.Float64("prev", 0.05, "prior infection risk per subject")
		profile   = flag.String("profile", "uniform", "risk profile: uniform | beta | household")
		assay     = flag.String("assay", "hyperbolic", "response: ideal | binary | hyperbolic | logistic | ct")
		maxPool   = flag.Int("maxpool", 16, "pool size cap")
		lookahead = flag.Int("lookahead", 1, "pools selected per stage")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		workers   = flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
		quiet     = flag.Bool("quiet", false, "only print the final summary")
		saveTo    = flag.String("save", "", "checkpoint the session after every stage to the slot files <path>.0 and <path>.1")
		resume    = flag.String("resume", "", "resume from the checkpoint in the slot files <path>.0 and <path>.1 instead of starting fresh")
		backend   = flag.String("backend", "dense", "posterior backend: dense | sparse | cluster")
		eps       = flag.Float64("eps", 1e-9, "sparse backend: relative truncation threshold")
		execs     = flag.Int("execs", 2, "cluster backend: local executors to start")
		execAddrs = flag.String("exec-addrs", "", "cluster backend: comma-separated external executor addresses (overrides -execs)")
	)
	obsFlags := obs.RegisterFlags(nil)
	flag.Parse()

	rt, err := obsFlags.Start("sbgt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbgt:", err)
		os.Exit(2)
	}
	defer rt.Close()

	r := sbgt.NewRand(*seed)
	risks, err := makeRisks(*profile, *n, *prev, r)
	if err != nil {
		rt.Fatal(err)
	}
	resp, err := makeResponse(*assay)
	if err != nil {
		rt.Fatal(err)
	}

	popu := sbgt.DrawPopulation(risks, r)
	oracle := sbgt.NewOracle(popu, resp, r)

	eng := sbgt.NewEngine(*workers)
	defer eng.Close()
	eng.Instrument(rt.Reg)
	var sess *sbgt.Session
	var ckpt *sbgt.CheckpointPair // the pair -resume read; -save of the same path goes on saving into it
	if *resume != "" {
		// Resuming re-simulates the same truth/oracle stream from -seed,
		// so pass the seed the original run used; with a real lab the
		// oracle is the lab and this caveat disappears.
		ckpt = &sbgt.CheckpointPair{Path: *resume}
		sess, err = eng.LoadPair(ckpt, sbgt.HalvingStrategy(*maxPool, false))
		if err != nil {
			rt.Fatal(err)
		}
		fmt.Printf("resumed from %s: stage %d, %d tests, %d subjects remaining\n",
			*resume, sess.Stage(), sess.Tests(), sess.Remaining())
	} else {
		kind, err := sbgt.ParseBackend(*backend)
		if err != nil {
			rt.Fatal(err)
		}
		addrs := splitAddrs(*execAddrs)
		model, err := eng.OpenBackend(sbgt.Backend{
			Kind:           kind,
			Eps:            *eps,
			Addrs:          addrs,
			LocalExecutors: *execs,
			DialTimeout:    10 * time.Second,
			Obs:            rt.Reg,
			Tracer:         rt.Tracer,
		}, risks, resp)
		if err != nil {
			rt.Fatal(err)
		}
		sess, err = eng.NewSessionOn(model, sbgt.Config{
			Risks:     risks,
			Response:  resp,
			Strategy:  sbgt.HalvingStrategy(*maxPool, false),
			Lookahead: *lookahead,
			Obs:       rt.Reg,
			Tracer:    rt.Tracer,
		})
		if err != nil {
			model.Close() //lint:allow errcheck teardown on a constructor failure path; the construction error wins
			rt.Fatal(err)
		}
	}

	fmt.Printf("cohort n=%d profile=%s assay=%s truth=%v (%d infected)\n",
		*n, *profile, resp.Name(), popu.Truth, popu.Infected())

	test := oracle.Test
	if !*quiet {
		test = func(pool sbgt.SubjectSet) sbgt.Outcome {
			y := oracle.Test(pool)
			fmt.Printf("  stage %2d  test pool %-24v -> %s\n", sess.Stage(), pool, y)
			return y
		}
	}
	if *saveTo != "" {
		if err := saveEachStage(sess, test, savePair(ckpt, *saveTo)); err != nil {
			rt.Fatal(err)
		}
	}
	res, err := sess.Run(test)
	if err != nil {
		rt.Fatal(err)
	}

	if !*quiet {
		fmt.Println("classifications:")
		for _, c := range res.Classifications {
			mark := " "
			if (c.Status == sbgt.StatusPositive) != popu.Truth.Has(c.Subject) {
				mark = "✗"
			}
			fmt.Printf("  subject %2d: %-8s (marginal %.4f, stage %d)%s\n",
				c.Subject, c.Status, c.Marginal, c.Stage, mark)
		}
	}
	conf := sbgt.EvaluateResult(res, popu.Truth)
	fmt.Printf("summary: tests=%d (%.2f/subject) stages=%d converged=%v accuracy=%.4f sens=%.4f spec=%.4f\n",
		res.Tests, res.TestsPerSubject(), res.Stages, res.Converged,
		conf.Accuracy(), conf.Sensitivity(), conf.Specificity())
	if !*quiet && len(res.StageTimings) > 0 {
		var sel, tst, upd, cls time.Duration
		for _, st := range res.StageTimings {
			sel += st.Select
			tst += st.Test
			upd += st.Update
			cls += st.Classify
		}
		fmt.Printf("timing: select=%v test=%v update=%v classify=%v over %d stage(s)\n",
			sel.Round(time.Microsecond), tst.Round(time.Microsecond),
			upd.Round(time.Microsecond), cls.Round(time.Microsecond), len(res.StageTimings))
	}
	// Misclassification under a noisy assay is not an error; exit 0 either way.
}

// saveEachStage runs the campaign to its end (or stage 64) and checkpoints
// it into the pair after every stage. Each save overwrites the pair's older
// slot file in place, so a crash mid-save resumes from the stage before.
func saveEachStage(sess *sbgt.Session, test func(sbgt.SubjectSet) sbgt.Outcome, ckpt *sbgt.CheckpointPair) error {
	for !sess.Done() && sess.Stage() < 64 {
		if err := sess.Step(test); err != nil {
			return err
		}
		if err := sess.SavePair(ckpt); err != nil {
			return err
		}
	}
	return nil
}

// savePair returns the pair -save writes: the one -resume read when both
// name the same file ("c" and "./c" alike), so saving goes on after the
// generation it resumed, else a new pair at path.
func savePair(resumed *sbgt.CheckpointPair, path string) *sbgt.CheckpointPair {
	if resumed != nil {
		a, errA := filepath.Abs(resumed.Path)
		b, errB := filepath.Abs(path)
		if errA == nil && errB == nil && a == b {
			return resumed
		}
	}
	return &sbgt.CheckpointPair{Path: path}
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func makeRisks(profile string, n int, prev float64, r *sbgt.Rand) ([]float64, error) {
	switch profile {
	case "uniform":
		return sbgt.UniformRisks(n, prev), nil
	case "beta":
		// Beta with mean prev and concentration 20.
		return sbgt.BetaRisks(n, prev*20, (1-prev)*20, r), nil
	case "household":
		return sbgt.HouseholdRisks(n, 4, 0.25, prev/2, minf(0.5, prev*6), r), nil
	default:
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
}

func makeResponse(assay string) (sbgt.Response, error) {
	switch assay {
	case "ideal":
		return sbgt.IdealTest(), nil
	case "binary":
		return sbgt.BinaryTest(0.95, 0.99), nil
	case "hyperbolic":
		return sbgt.HyperbolicDilutionTest(0.98, 0.995, 0.25), nil
	case "logistic":
		return sbgt.LogisticDilutionTest(0.98, 0.995, 4, 1.5), nil
	case "ct":
		return sbgt.CtTest(), nil
	default:
		return nil, fmt.Errorf("unknown assay %q", assay)
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

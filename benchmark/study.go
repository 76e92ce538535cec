package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	sbgt "repro"
)

// study is the Monte-Carlo workload: Engine.RunStudy calls, each fanning
// its replicates out over the engine's workers. A turn is one call and a
// cohort is one replicate. The runner draws its cohorts itself, from
// each call's StudyConfig.Seed. Those seeds come from populationSeed, as
// the campaign workloads' cohorts do and for the same reason (with them
// drawn from -seed, ten seeds spread tests_per_subject by 1.2 % and the
// 95th-percentile call by 5 %); -seed decides the order of the calls.
type study struct {
	n, replicates, calls int

	e     *env
	eng   *sbgt.Engine
	seeds []uint64 // one per call, in this run's order
	first uint64   // the population's first call, which set-up probes
}

func (s *study) setup(e *env) error {
	s.e = e
	r := sbgt.NewRand(populationSeed)
	s.seeds = make([]uint64, s.calls)
	for i := range s.seeds {
		s.seeds[i] = r.Uint64()
	}
	s.first = s.seeds[0]
	sbgt.NewRand(e.seed).Shuffle(len(s.seeds), func(i, j int) { s.seeds[i], s.seeds[j] = s.seeds[j], s.seeds[i] })
	s.eng = sbgt.NewEngine(e.workers)
	s.eng.Instrument(e.reg)
	// Probe: the parallel runner must reproduce the serial one exactly;
	// the per-replicate streams are split before any work starts.
	par, err := s.eng.RunStudy(s.config(s.first))
	if err != nil {
		return fmt.Errorf("probe study: %w", err)
	}
	ser, err := sbgt.RunStudySerial(s.config(s.first))
	if err != nil {
		return fmt.Errorf("probe study, serial: %w", err)
	}
	if !reflect.DeepEqual(par.Reps, ser.Reps) {
		return fmt.Errorf("probe study: parallel and serial replicates differ")
	}
	return nil
}

// config is one call's. Obs is attached as cmd/sbgt-bench attaches it;
// at N=12 the per-session registry bookkeeping it switches on is a fifth
// of a round, which is the program's cost and so part of the measurement.
func (s *study) config(seed uint64) sbgt.StudyConfig {
	n := s.n
	return sbgt.StudyConfig{
		RiskGen:    func(r *sbgt.Rand) []float64 { return sbgt.BetaRisks(n, riskA, riskB, r) },
		Response:   assay(),
		Replicates: s.replicates,
		Seed:       seed,
		Obs:        s.e.reg,
	}
}

func (s *study) close() error {
	if s.eng != nil {
		s.eng.Close()
		s.eng = nil
	}
	return nil
}

func (s *study) round(rec *recorder) *roundResult {
	rr := &roundResult{}
	t := newTracer(rec)
	for call, seed := range s.seeds {
		t.at(call, 0)
		t0 := time.Now()
		endTurn := t.begin("turn")
		endCall := t.begin("stats.study_call")
		res, err := s.eng.RunStudy(s.config(seed))
		endCall()
		endTurn()
		rr.turns = append(rr.turns, float64(time.Since(t0))/1e6)
		rr.Turns++
		if err != nil {
			rr.fail(fmt.Errorf("study call %d: %w", call, err))
			continue
		}
		for _, rep := range res.Reps {
			if rep.Total() != rep.Subjects {
				rr.fail(fmt.Errorf("study call %d: a replicate classified %d of %d subjects", call, rep.Total(), rep.Subjects))
				continue
			}
			rr.Cohorts++
			rr.Subjects += rep.Subjects
			rr.Tests += rep.Tests
			rr.Stages += rep.Stages
			rr.Correct += rep.TP + rep.TN
		}
	}
	return rr
}

// extras runs the first calls on the single-threaded runner, so the
// fan-out's gain has a base. (The lattice rows of this workload come from
// the registry's movement over the traced rounds: the runner builds its
// own sessions, out of the decorator's reach.)
func (s *study) extras(rec *recorder, rounds []*roundResult, values map[string]float64, log io.Writer) error {
	seeds := s.seeds
	if len(seeds) > 8 {
		seeds = seeds[:8]
	}
	var serial []float64
	for _, seed := range seeds {
		t0 := time.Now()
		if _, err := sbgt.RunStudySerial(s.config(seed)); err != nil {
			return err
		}
		serial = append(serial, time.Since(t0).Seconds())
	}
	perCall := percentile(serial, 0.5)
	var parallel []float64
	for _, r := range rounds {
		parallel = append(parallel, percentile(r.turns, 0.5)/1e3)
	}
	serialRate := float64(s.replicates) / perCall
	values["stats.serial_replicates_per_s"] = serialRate
	values["stats.parallel_speedup"] = perCall / percentile(parallel, 0.5)
	values["stats.session_us_per_replicate"] = 1e6 / serialRate
	return nil
}

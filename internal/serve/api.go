// Package serve hosts long-lived surveillance campaigns behind an
// HTTP/JSON API.
//
// Every other entry point in this repository is a one-shot process: it
// builds a session, drives it to completion through a callback, and
// exits. Real surveillance is the opposite shape — lab round-trips take
// hours, results arrive out of band, and one deployment watches
// thousands of cohorts at once. This package inverts the loop using the
// core propose/absorb state machine: a client asks for the next pools,
// runs the physical tests on its own clock, and posts the outcomes back,
// while the session manager keeps only the hottest posteriors resident
// and checkpoints the rest to disk.
//
// The wire format is deliberately plain JSON over plain HTTP: lab
// information systems integrate over decades, not release cycles.
package serve

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dilution"
)

// ResponseSpec selects a dilution response model on the wire. Kind is
// one of "ideal", "binary", "hyperbolic"; the numeric fields apply per
// kind (binary: sens/spec, hyperbolic: max_sens/spec/d).
type ResponseSpec struct {
	Kind    string  `json:"kind"`
	Sens    float64 `json:"sens,omitempty"`
	Spec    float64 `json:"spec,omitempty"`
	MaxSens float64 `json:"max_sens,omitempty"`
	D       float64 `json:"d,omitempty"`
}

// Response materializes the spec into a dilution model.
func (r ResponseSpec) Response() (dilution.Response, error) {
	switch r.Kind {
	case "", "ideal":
		return dilution.Ideal{}, nil
	case "binary":
		return dilution.Binary{Sens: r.Sens, Spec: r.Spec}, nil
	case "hyperbolic":
		return dilution.Hyperbolic{MaxSens: r.MaxSens, Spec: r.Spec, D: r.D}, nil
	default:
		return nil, fmt.Errorf("serve: unknown response kind %q", r.Kind)
	}
}

// CreateCohortRequest opens a new campaign. Risks carries the per-subject
// prior infection probabilities (its length is the cohort size); the
// remaining knobs mirror core.Config and are optional; core validates
// them (a Lookahead above core.MaxLookahead answers 400, before any
// lattice is built).
type CreateCohortRequest struct {
	Tenant       string       `json:"tenant"`
	Risks        []float64    `json:"risks"`
	Response     ResponseSpec `json:"response"`
	Lookahead    int          `json:"lookahead,omitempty"`
	PosThreshold float64      `json:"pos_threshold,omitempty"`
	NegThreshold float64      `json:"neg_threshold,omitempty"`
	MaxStages    int          `json:"max_stages,omitempty"`
}

// CreateCohortResponse returns the server-assigned cohort ID.
type CreateCohortResponse struct {
	ID string `json:"id"`
}

// PoolJSON is one proposed pool: pipette together the listed subjects
// and test the pool once. (Stage, Index) identifies the proposal slot a
// result must answer.
type PoolJSON struct {
	Stage    int   `json:"stage"`
	Index    int   `json:"index"`
	Subjects []int `json:"subjects"`
}

// PoolsResponse is the next batch of lab work for a cohort. Done means
// the campaign is complete and Pools is empty — fetch the status for the
// classifications.
type PoolsResponse struct {
	ID    string     `json:"id"`
	Done  bool       `json:"done"`
	Stage int        `json:"stage"`
	Pools []PoolJSON `json:"pools"`
}

// ResultJSON reports one pool's lab outcome back to its proposal slot.
type ResultJSON struct {
	Stage     int     `json:"stage"`
	Index     int     `json:"index"`
	Positive  bool    `json:"positive"`
	Ct        float64 `json:"ct,omitempty"`
	ElapsedMS int64   `json:"elapsed_ms,omitempty"`
}

// SubmitResultsRequest posts a full stage of outcomes. The batch must
// answer the outstanding proposal exactly — every (stage, index) once.
type SubmitResultsRequest struct {
	Results []ResultJSON `json:"results"`
}

// ClassificationJSON is one subject's call.
type ClassificationJSON struct {
	Subject  int     `json:"subject"`
	Status   string  `json:"status"` // "unknown" | "negative" | "positive"
	Marginal float64 `json:"marginal"`
	Stage    int     `json:"stage"`
	Forced   bool    `json:"forced,omitempty"`
}

// StatusResponse is a cohort's current state.
type StatusResponse struct {
	ID              string               `json:"id"`
	Tenant          string               `json:"tenant,omitempty"`
	Done            bool                 `json:"done"`
	Stage           int                  `json:"stage"`
	Tests           int                  `json:"tests"`
	Remaining       int                  `json:"remaining"`
	Classifications []ClassificationJSON `json:"classifications"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DrainResponse acknowledges a drain request.
type DrainResponse struct {
	Draining     bool `json:"draining"`
	Checkpointed int  `json:"checkpointed"`
}

func poolsJSON(pools []core.Pool) []PoolJSON {
	out := make([]PoolJSON, len(pools))
	for i, p := range pools {
		out[i] = PoolJSON{Stage: p.Stage, Index: p.Index, Subjects: p.Pool.Indices()}
	}
	return out
}

func resultsFromJSON(in []ResultJSON) []core.TestResult {
	out := make([]core.TestResult, len(in))
	for i, r := range in {
		out[i] = core.TestResult{
			Stage:   r.Stage,
			Index:   r.Index,
			Outcome: dilution.Outcome{Positive: r.Positive, Ct: r.Ct},
			Elapsed: time.Duration(r.ElapsedMS) * time.Millisecond,
		}
	}
	return out
}

func classificationsJSON(calls []core.Classification) []ClassificationJSON {
	out := make([]ClassificationJSON, len(calls))
	for i, c := range calls {
		out[i] = ClassificationJSON{
			Subject:  c.Subject,
			Status:   statusString(c.Status),
			Marginal: c.Marginal,
			Stage:    c.Stage,
			Forced:   c.Forced,
		}
	}
	return out
}

func statusString(s core.Status) string {
	switch s {
	case core.StatusPositive:
		return "positive"
	case core.StatusNegative:
		return "negative"
	default:
		return "unknown"
	}
}

package sbgt

import "repro/internal/obs"

// Metrics is a process-wide metric registry: counters, gauges, and
// histograms with a lock-free hot path, exportable as Prometheus text or
// JSON. Hand one to Engine.Instrument, Backend.Obs, and Config.Obs to
// light up the whole pipeline.
type Metrics = obs.Registry

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Tracer collects timing spans (Config.Tracer wires it into sessions).
// limit bounds retained spans (<= 0 selects a default); the oldest are
// dropped first.
type Tracer = obs.Tracer

// NewTracer creates a span collector.
func NewTracer(limit int) *Tracer { return obs.NewTracer(limit) }

// SpanRecord is one finished span as tracers store, export (/spans,
// -trace-out NDJSON), and ship it across the cluster RPC boundary.
type SpanRecord = obs.SpanRecord

// Trace is an assembled span tree — one distributed trace merged from
// the driver's buffer and any executor span sets. Walk, Find, and
// WriteText navigate and render it.
type Trace = obs.Trace

// AssembleTraces merges span dumps — a driver tracer's Snapshot or
// Drain, NDJSON rows from -trace-out, /spans scrapes from executors —
// into per-trace trees, oldest first. Duplicate span IDs within a trace
// are deduped, so overlapping dumps (executor spans appear both in the
// driver's absorbed buffer and on the executor's own /spans) merge
// cleanly.
func AssembleTraces(sets ...[]SpanRecord) []*Trace { return obs.Assemble(sets...) }

// Instrument attaches the engine's worker pool to a registry (see
// internal/obs): task counts, queue depth, in-flight gauge, task-time
// and submit-wait histograms under sbgt_engine_pool_*.
func (e *Engine) Instrument(reg *Metrics) { e.pool.Instrument(reg) }

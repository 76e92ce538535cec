package sbgt

import (
	"io"

	"repro/internal/core"
)

// SaveSession checkpoints a surveillance session mid-campaign (or after
// completion): classifications, counters, the test log, and the live
// posterior. Use (*Engine).LoadSession to resume.
func SaveSession(w io.Writer, s *Session) error {
	return s.SaveSession(w)
}

// LoadSession resumes a checkpointed session on the engine. strategy
// supplies the selection policy for the resumed campaign (nil = the
// default halving strategy); strategies are deliberately not serialized,
// so an operator may change policy across a restart. On an instrumented
// engine (Instrument) the resumed session reports to the engine's
// registry, as a fresh session with that registry as its Config.Obs
// would: its stage phases and its posterior's operations. On an
// uninstrumented engine it reports nothing.
func (e *Engine) LoadSession(r io.Reader, strategy Strategy) (*Session, error) {
	return core.LoadSession(r, e.pool, strategy, e.reg.Load())
}

// CheckpointPair is a checkpoint kept on disk as two slot files, Path+".0"
// and Path+".1": Session.SavePair overwrites the older slot in place, and
// a process killed mid-save resumes from the previous checkpoint or the
// new one, never a torn one. Keep the value between saves and loads; a
// fresh one knows only its Path.
type CheckpointPair = core.Pair

// LoadPair resumes the session a checkpoint pair holds, as LoadSession
// resumes one from a stream, and records in p which slot it came from, so
// that saving p next overwrites the other.
func (e *Engine) LoadPair(p *CheckpointPair, strategy Strategy) (*Session, error) {
	return core.LoadPair(p, e.pool, strategy, e.reg.Load())
}

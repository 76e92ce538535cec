package cluster

import (
	"bufio"
	"errors"
	"io"
	"log/slog"
	"math/bits"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/prob"
)

// Executor serves lattice-shard kernels to one driver connection at a
// time. It owns a contiguous state range [lo, hi) and evaluates kernels
// over it with a local engine pool. It keeps the largest shard array it
// has needed until Close: every shard, built or re-based, is a prefix of
// it, so only a shard larger than any before allocates.
type Executor struct {
	pool   *engine.Pool
	log    *slog.Logger
	tracer *obs.Tracer   // always non-nil; records traced dispatches
	idle   time.Duration // per-round read/write bound; 0 disables

	// Shard state: data is nil until this connection's OpBuildPrior, then a
	// prefix of buf. mu orders a dispatch against Close's release of buf.
	mu   sync.Mutex
	n    int
	lo   uint64
	data []float64
	buf  []float64
}

// NewExecutor returns an executor whose kernels run on workers local
// goroutines (<= 0 selects GOMAXPROCS). Transport hiccups log through
// slog.Default; redirect with SetLogger. The executor owns a span tracer
// (replaceable with SetTracer) so traced RPCs can ship their spans back
// even when no introspection endpoint was configured.
func NewExecutor(workers int) *Executor {
	return &Executor{pool: engine.NewPool(workers), log: slog.Default(), tracer: obs.NewTracer(0)}
}

// SetLogger redirects the executor's transport logging. A nil logger
// silences it.
func (e *Executor) SetLogger(l *slog.Logger) { e.log = obs.OrNop(l) }

// SetTracer redirects span recording — pass the runtime tracer served on
// /spans so a standalone sbgt-exec exposes its side of every trace. A
// nil tracer is replaced with a detached one: dispatch spans then still
// get IDs and ship in response trailers, they just aren't retained.
func (e *Executor) SetTracer(t *obs.Tracer) {
	if t == nil {
		t = obs.NewTracer(0)
	}
	e.tracer = t
}

// SetIdleTimeout bounds how long one driver connection may sit silent (or
// refuse to accept a response) before the executor drops it and returns to
// accepting. Serve handles connections serially, so without a bound a
// wedged driver — half-open TCP, a stalled process holding the socket —
// starves every future driver forever. d <= 0 disables the bound.
func (e *Executor) SetIdleTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.idle = d
}

// Close releases the local worker pool and the kept shard storage.
func (e *Executor) Close() {
	e.pool.Close()
	e.mu.Lock()
	e.data, e.buf = nil, nil
	e.mu.Unlock()
}

// Serve accepts driver connections on l until l is closed. Each connection
// is handled serially — the protocol has a single driver — and a dropped
// connection returns the executor to accepting, so a restarted driver can
// reclaim a live executor (the re-sent BuildPrior re-materializes the
// shard). No request stops the executor: its owner closes the listener.
func (e *Executor) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		e.handle(conn)
		if err := conn.Close(); err != nil {
			e.log.Warn("cluster executor: close conn", "err", err)
		}
	}
}

// handle runs one connection's request loop until the driver hangs up or
// the connection fails (a frame this build cannot read included). It
// starts with no shard and reuses one read and one write buffer.
func (e *Executor) handle(conn net.Conn) {
	e.mu.Lock()
	e.data = nil
	e.mu.Unlock()
	r := bufio.NewReader(conn)
	var rbuf, wbuf []byte
	for {
		if e.idle > 0 {
			// Bound the wait for the next request: a silent or half-open
			// driver releases the (serial) accept loop instead of holding it.
			if err := conn.SetReadDeadline(time.Now().Add(e.idle)); err != nil {
				e.log.Warn("cluster executor: arm read deadline", "err", err)
				return
			}
		}
		var req Request
		if err := readRequest(r, &rbuf, &req); err != nil {
			if !errors.Is(err, io.EOF) {
				e.log.Warn("cluster executor: read request", "err", err)
			}
			return
		}
		if e.idle > 0 {
			// A fresh write window per response: the read deadline above may
			// be nearly spent by the time a long kernel finishes.
			if err := conn.SetWriteDeadline(time.Now().Add(e.idle)); err != nil {
				e.log.Warn("cluster executor: arm write deadline", "err", err)
				return
			}
		}
		e.mu.Lock()
		resp := e.serve(req)
		e.mu.Unlock()
		if err := writeResponse(conn, &wbuf, &resp); err != nil {
			e.log.Warn("cluster executor: send response", "err", err)
			return
		}
	}
}

// serve evaluates one request, opening executor-side spans under the
// propagated trace context when the request carries one: an exec:<op>
// span for the whole dispatch with a kernel child for the shard
// computation itself. Completed spans ride back in the response trailer
// (and stay in the executor's own tracer for its /spans endpoint).
func (e *Executor) serve(req Request) Response {
	if req.Trace == "" {
		return e.dispatch(req)
	}
	parent, err := obs.ParseTraceContext(req.Trace)
	if err != nil {
		// Tracing is advisory: a malformed context degrades the call to
		// untraced rather than failing real work.
		e.log.Warn("cluster executor: bad trace context", "err", err)
		return e.dispatch(req)
	}
	span := e.tracer.StartUnder("exec:"+req.Op.String(), parent, obs.A("states", len(e.data)))
	kernel := span.Child("kernel")
	resp := e.dispatch(req)
	kernel.End()
	span.End()
	resp.Spans = make([]obs.SpanRecord, 0, 2)
	if rec, ok := span.Record(); ok {
		resp.Spans = append(resp.Spans, rec)
	}
	if rec, ok := kernel.Record(); ok {
		resp.Spans = append(resp.Spans, rec)
	}
	return resp
}

// dispatch evaluates one request against the shard.
func (e *Executor) dispatch(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{Op: OpPing}
	case OpBuildPrior:
		return e.buildPrior(req)
	}
	// Every remaining op needs a built shard.
	if e.data == nil {
		return errorf(req.Op, "no shard built")
	}
	switch req.Op {
	case OpLoadShard:
		return e.loadShard(req)
	case OpCollapse:
		return e.collapse(req)
	case OpFetch:
		return e.fetch(req)
	case OpUpdateMul, OpDotLik:
		return e.updateMul(req)
	case OpScale:
		return e.scale(req)
	case OpSumWhere:
		return e.sumWhere(req)
	case OpMarginals:
		return e.marginals(req)
	case OpNegMasses:
		return e.negMasses(req)
	case OpEntropy:
		return e.entropy(req)
	case OpMass:
		return e.mass(req)
	case OpPrefix:
		return e.prefixScan(req)
	default:
		return errorf(req.Op, "unknown op")
	}
}

// forRange runs body over local index chunks of the shard in parallel.
func (e *Executor) forRange(body func(lo, hi int)) {
	e.pool.For(len(e.data), 0, body)
}

// reduceChunk is the chunk length of the executor's reductions, in states.
const reduceChunk = 1 << 14

// reduceChunks evaluates kernel's compensated partial sum over each
// fixed-size chunk of the shard — chunk p is a run (offset, data) — and
// merges the chunk partials in order, mirroring engine.Vector's
// deterministic reduction shape.
func (e *Executor) reduceChunks(kernel func(p int, offset uint64, data []float64) prob.Accumulator) float64 {
	n := len(e.data)
	partials := make([]prob.Accumulator, (n+reduceChunk-1)/reduceChunk)
	e.pool.For(len(partials), 1, func(plo, phi int) {
		for p := plo; p < phi; p++ {
			lo := p * reduceChunk
			partials[p] = kernel(p, e.lo+uint64(lo), e.data[lo:min(lo+reduceChunk, n)])
		}
	})
	var total prob.Accumulator
	for _, acc := range partials {
		total.Merge(acc)
	}
	return total.Value()
}

func (e *Executor) buildPrior(req Request) Response {
	n := len(req.Risks)
	if n == 0 || n > MaxSubjects {
		return errorf(req.Op, "invalid cohort size %d", n)
	}
	total := uint64(1) << uint(n)
	if req.Lo >= req.Hi || req.Hi > total {
		return errorf(req.Op, "invalid shard range [%d,%d) of %d", req.Lo, req.Hi, total)
	}
	base, odds, err := lattice.PriorOdds(req.Risks)
	if err != nil {
		return errorf(req.Op, "%v", err)
	}
	// FillPrior writes every state, so reused storage needs no clearing.
	e.n, e.lo, e.data = n, req.Lo, e.shard(req.Hi-req.Lo)
	e.forRange(func(lo, hi int) {
		lattice.FillPrior(e.lo+uint64(lo), e.data[lo:hi], base, odds)
	})
	return Response{Op: req.Op} // unnormalized; the driver has the total in closed form
}

// shard returns a prefix of the kept array for size states, non-nil even
// when empty (nil means "no shard built"); only a larger size replaces it.
func (e *Executor) shard(size uint64) []float64 {
	if uint64(cap(e.buf)) < size || e.buf == nil {
		e.buf = make([]float64, size)
	}
	return e.buf[:size]
}

// fetch returns the shard's states outside [Lo, Hi), in state order: the
// whole shard for an empty range (snapshots), and after a collapse the
// states leaving this executor. Unless states leave at both ends the
// response aliases the shard; handle encodes it before reading the next
// request, so nothing writes the shard in between.
func (e *Executor) fetch(req Request) Response {
	if req.Lo > req.Hi {
		return errorf(req.Op, "inverted range [%d,%d)", req.Lo, req.Hi)
	}
	end := e.lo + uint64(len(e.data))
	below, above := min(max(req.Lo, e.lo), end)-e.lo, min(max(req.Hi, e.lo), end)-e.lo
	vec := e.data[above:]
	if below > 0 {
		vec = append(e.data[:below:below], vec...)
	}
	return Response{Op: req.Op, Vec: vec}
}

// loadShard re-bases the shard to [Lo, Hi) after a collapse left the
// executors unevenly loaded: the states it already holds in that range
// stay, and Data supplies the rest — those below the retained overlap,
// then those above, spliced in place. Only states whose owner changed
// cross the wire. An empty range is valid, so a lattice that has shrunk
// below the executor count still keeps every connection assigned.
func (e *Executor) loadShard(req Request) Response {
	if req.Lo > req.Hi || req.Hi > uint64(1)<<uint(e.n) {
		return errorf(req.Op, "invalid shard range [%d,%d) of %d", req.Lo, req.Hi, uint64(1)<<uint(e.n))
	}
	var keep []float64 // the states of [Lo, Hi) already here
	var head uint64    // how many states of Data lie below them
	if lo, hi := max(e.lo, req.Lo), min(e.lo+uint64(len(e.data)), req.Hi); lo < hi {
		keep, head = e.data[lo-e.lo:hi-e.lo], lo-req.Lo
	}
	if lacks := req.Hi - req.Lo - uint64(len(keep)); uint64(len(req.Data)) != lacks {
		return errorf(req.Op, "shard payload has %d states, range [%d,%d) lacks %d", len(req.Data), req.Lo, req.Hi, lacks)
	}
	if i := lattice.FirstInvalid(req.Data); i >= 0 {
		return errorf(req.Op, "invalid shard mass %v", req.Data[i])
	}
	// keep may lie in the array shard returns: move it (a memmove) first.
	data := e.shard(req.Hi - req.Lo)
	copy(data[head:], keep)
	copy(data, req.Data[:head])
	copy(data[head+uint64(len(keep)):], req.Data[head:])
	e.lo, e.data = req.Lo, data
	return Response{Op: req.Op}
}

// collapse conditions the shard on the subject at req.Pool having status
// req.Base, in place (lattice.CollapseBit): the survivors are a contiguous
// range of the halved lattice, so they stay here, unscaled. It answers their
// total and marginal partials from one pass, as updateMul does, and in Data
// what fetch returns for [Lo, Hi), this executor's range in the even split:
// the states a rebalance moves off it.
func (e *Executor) collapse(req Request) Response {
	if bits.OnesCount64(req.Pool) != 1 || req.Pool >= uint64(1)<<uint(e.n) {
		return errorf(req.Op, "bit %#x is not one subject of a cohort of %d", req.Pool, e.n)
	}
	if req.Base != 0 && req.Base != req.Pool || req.Lo > req.Hi {
		return errorf(req.Op, "base %#x is neither 0 nor the bit %#x, or range [%d,%d) is inverted", req.Base, req.Pool, req.Lo, req.Hi)
	}
	if e.n <= 1 {
		return errorf(req.Op, "cannot collapse a one-subject lattice")
	}
	lo, kept := lattice.CollapseBit(e.lo, e.data, req.Pool, req.Base)
	e.n, e.lo, e.data = e.n-1, lo, e.data[:kept]
	resp := e.withMarginals(req.Op, lattice.AddMarginals)
	resp.Data = e.fetch(req).Vec
	return resp
}

// withMarginals runs kernel over the shard's chunks, each into its own
// marginal partial, and answers the merged total and partials (Sum, Vec).
func (e *Executor) withMarginals(op Op, kernel func(offset uint64, data, marg []float64) prob.Accumulator) Response {
	partials := make([][]float64, (len(e.data)+reduceChunk-1)/reduceChunk)
	sum := e.reduceChunks(func(p int, offset uint64, data []float64) prob.Accumulator {
		partials[p] = make([]float64, e.n)
		return kernel(offset, data, partials[p])
	})
	return Response{Op: op, Sum: sum, Vec: lattice.MergeVec(partials, e.n, 1)}
}

// updateMul multiplies the shard by the likelihood table and returns the
// products' sum and, in Vec, their marginal partials (chunk partials merged
// in chunk order, as the sum's are). The table crosses a trust boundary and
// the multiply cannot be undone, so every entry is checked before the shard
// is touched. As OpDotLik it returns the same sum, to rounding, with the
// shard untouched: the driver's look before a table with a zero entry.
func (e *Executor) updateMul(req Request) Response {
	want := bits.OnesCount64(req.Pool) + 1
	if len(req.Lik) != want {
		return errorf(req.Op, "likelihood table has %d entries, want %d", len(req.Lik), want)
	}
	if k := lattice.FirstInvalid(req.Lik); k >= 0 {
		return errorf(req.Op, "invalid likelihood %v at k=%d", req.Lik[k], k)
	}
	if req.Op == OpDotLik {
		return Response{Op: req.Op, Sum: e.reduceChunks(func(_ int, offset uint64, data []float64) prob.Accumulator {
			return lattice.DotLikelihood(offset, data, req.Pool, req.Lik)
		})}
	}
	return e.withMarginals(req.Op, func(offset uint64, data, marg []float64) prob.Accumulator {
		return lattice.MulLikelihood(offset, data, req.Pool, req.Lik, marg)
	})
}

func (e *Executor) scale(req Request) Response {
	if !lattice.ValidFactor(req.Factor) {
		return errorf(req.Op, "invalid factor %v", req.Factor)
	}
	e.forRange(func(lo, hi int) {
		lattice.Scale(e.data[lo:hi], req.Factor)
	})
	return Response{Op: req.Op}
}

func (e *Executor) sumWhere(req Request) Response {
	sum := e.reduceChunks(func(_ int, offset uint64, data []float64) prob.Accumulator {
		return lattice.SumWhere(offset, data, req.Pool, req.Base)
	})
	return Response{Op: req.Op, Sum: sum}
}

// marginals returns the shard's marginal partials, or with branch pools
// its look-ahead rows (lattice.AddBranchMarginals), whose pools and tables
// are checked first: they arrive from outside the process. Accumulation is
// single-threaded per executor, which keeps it allocation-free and still
// distributed across executors; shards are the unit of parallelism for
// vector-valued reductions on the wire.
func (e *Executor) marginals(req Request) Response {
	if len(req.BranchPools) == 0 && len(req.BranchTables) == 0 {
		out := make([]float64, e.n)
		lattice.AddMarginals(e.lo, e.data, out)
		return Response{Op: req.Op, Vec: out}
	}
	if err := lattice.CheckBranches(req.BranchPools, req.BranchTables, e.n); err != nil {
		return errorf(req.Op, "%v", err)
	}
	out := make([]float64, (e.n+1)<<uint(len(req.BranchPools)))
	lattice.AddBranchMarginals(e.lo, e.data, req.BranchPools, req.BranchTables, out)
	return Response{Op: req.Op, Vec: out}
}

func (e *Executor) negMasses(req Request) Response {
	if len(req.Cands) == 0 {
		return errorf(req.Op, "no candidates")
	}
	out := make([]float64, len(req.Cands))
	// Workers split the candidate list and each runs the tiled scan over
	// the whole shard for its candidates: out[c] has a single writer
	// accumulating in fixed tile order, so the result is deterministic.
	e.pool.For(len(req.Cands), 1, func(clo, chi int) {
		lattice.AddCleanMasses(e.lo, e.data, req.Cands[clo:chi], out[clo:chi])
	})
	return Response{Op: req.Op, Vec: out}
}

func (e *Executor) entropy(req Request) Response {
	sum := e.reduceChunks(func(_ int, _ uint64, data []float64) prob.Accumulator {
		return lattice.EntropyNats(data)
	})
	return Response{Op: req.Op, Sum: sum}
}

// prefixScan returns the shard's min-rank histogram for the halving
// prefix candidates: slot r accumulates the mass of states whose
// lowest-ranked infected subject (per req.Order) has rank r, slot
// len(Order) the mass of states disjoint from the whole ordering. With
// branch pools (checked as for marginals) it returns one histogram per
// outcome branch. The driver merges histograms and suffix-sums them into
// prefix clean masses.
func (e *Executor) prefixScan(req Request) Response {
	tbl, err := lattice.NewRankTable(req.Order, e.n)
	if err != nil {
		return errorf(req.Op, "%v", err)
	}
	if len(req.BranchPools) == 0 && len(req.BranchTables) == 0 {
		out := make([]float64, len(req.Order)+1)
		tbl.AddMinRankMasses(e.lo, e.data, out)
		return Response{Op: req.Op, Vec: out}
	}
	if err := lattice.CheckBranches(req.BranchPools, req.BranchTables, e.n); err != nil {
		return errorf(req.Op, "%v", err)
	}
	out := make([]float64, (len(req.Order)+1)<<uint(len(req.BranchPools)))
	tbl.AddBranchMinRankMasses(e.lo, e.data, req.BranchPools, req.BranchTables, out)
	return Response{Op: req.Op, Vec: out}
}

// mass sums the whole shard: SumWhere with mask 0 keeps every state.
func (e *Executor) mass(req Request) Response {
	sum := e.reduceChunks(func(_ int, offset uint64, data []float64) prob.Accumulator {
		return lattice.SumWhere(offset, data, 0, 0)
	})
	return Response{Op: req.Op, Sum: sum}
}

// Package cluster is the distributed runtime of the reproduction: a
// driver/executor architecture over TCP that plays the role of SBGT's
// Spark cluster.
//
// Each executor owns one contiguous shard of the 2^N lattice posterior and
// runs the same partition kernels the in-process engine uses (with its own
// local worker pool). The driver fans a request out to every executor,
// waits for all partial results, and merges them in executor-rank order so
// distributed reductions are as deterministic as local ones. The wire
// format is a fixed binary frame (frame.go) over one persistent TCP
// connection per executor, with one request in flight per connection and
// its buffers reused from round to round; a peer of another frame version
// is refused at its first frame, so drivers and sbgt-exec upgrade together.
//
// The protocol is intentionally lattice-specific rather than a generic
// serialized-closure RPC: shipping *named kernels + small parameter
// tables* (a likelihood table, a candidate list) instead of code is what
// makes the distributed mode safe, debuggable, and fast — the same design
// point Spark reaches with its closure-cleaning + broadcast machinery.
package cluster

import (
	"fmt"

	"repro/internal/obs"
)

// Op identifies a kernel the driver can invoke on an executor.
type Op uint8

// Protocol operations.
const (
	OpPing       Op = iota // liveness check; echoes
	OpBuildPrior           // materialize the prior product measure on the shard, unnormalized (the driver knows its total in closed form)
	OpUpdateMul            // multiply shard by a likelihood table, return the products' partial sum and marginal partials
	OpScale                // multiply shard by a scalar (the driver's settle round, and nothing else)
	OpSumWhere             // partial sum of states s with s&Pool == Base: the preflight of a condition whose event may have zero mass
	OpMarginals            // partial per-subject marginal vector; with branch pools, one row per outcome branch
	OpNegMasses            // partial clean-mass vector for candidate pools
	OpEntropy              // partial Σ −p·ln p
	OpMass                 // partial total mass
	OpFetch                // return the shard's states outside [Lo, Hi): all of it for an empty range (snapshots)
	OpPrefix               // partial min-rank histogram for the halving prefix scan; with branch pools, one per outcome branch
	OpLoadShard            // re-base the shard to [Lo, Hi): keep the overlap, splice Data around it
	OpCollapse             // condition the shard on s&Pool == Base in place, unscaled; return the survivors' partial total and marginal partials, and the states outside [Lo, Hi)
	OpDotLik               // partial Σ π(s)·Lik[|s∩Pool|] with the shard untouched: the look before an OpUpdateMul whose table has a zero
)

// String names the op for errors and logs.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpBuildPrior:
		return "build-prior"
	case OpUpdateMul:
		return "update-mul"
	case OpScale:
		return "scale"
	case OpSumWhere:
		return "sum-where"
	case OpMarginals:
		return "marginals"
	case OpNegMasses:
		return "neg-masses"
	case OpEntropy:
		return "entropy"
	case OpMass:
		return "mass"
	case OpFetch:
		return "fetch"
	case OpPrefix:
		return "prefix-scan"
	case OpLoadShard:
		return "load-shard"
	case OpCollapse:
		return "collapse"
	case OpDotLik:
		return "dot-lik"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is one driver→executor message. Fields are op-specific; unused
// fields stay zero and the frame leaves them out.
type Request struct {
	Op Op
	// BuildPrior.
	Risks []float64 // per-subject prior risks (defines N too)
	// BuildPrior: the global state range this executor owns. LoadShard: the
	// shard's new range (Lo == Hi is a valid empty shard, for a lattice that
	// has shrunk below the executor count). Fetch: the range whose states
	// are NOT returned — empty for the whole shard. Collapse: the
	// executor's range in the even split of the halved lattice, whose
	// survivors outside it come back in Response.Data.
	Lo, Hi uint64
	// UpdateMul / DotLik: pool mask. SumWhere: the bits to test. Collapse:
	// the single bit of the subject being conditioned out.
	Pool  uint64
	Lik   []float64 // likelihood by intersect count, len = popcount(Pool)+1
	Cands []uint64  // candidate pool masks
	// SumWhere / Collapse: the value s&Pool must take (0 for a clean-mass
	// sum; 0 or Pool for a subject conditioned negative or positive).
	Base uint64
	// Prefix: subject ordering for the prefix scan.
	Order []int
	// Scale: the multiplier (the driver's settle round). No other op reads it.
	Factor float64
	// LoadShard: the states of [Lo, Hi) the executor does not already hold,
	// in state order — those below its retained overlap, then those above.
	Data []float64
	// Trace, when non-empty, is the W3C-traceparent-style context of the
	// driver-side RPC span (obs.TraceContext.Encode). The executor opens
	// its dispatch span as a child of it and ships the completed spans
	// back in Response.Spans, so one session trace crosses the process
	// boundary. Empty means the call is untraced and the executor records
	// no spans for it.
	Trace string
	// Marginals / Prefix: the look-ahead branch read. With BranchPools set,
	// the executor weights each state by its factor in every outcome branch
	// of these pools and answers one marginal row (N+1 floats: marginals,
	// then the branch weight) or one min-rank histogram per branch, 2^t of
	// them for t pools. BranchTables[j][k] is P(pool j reads positive | k
	// of its specimens infected), popcount(BranchPools[j])+1 entries. Both
	// empty is the plain read, and leaves the frame's bytes as without them.
	BranchPools  []uint64
	BranchTables [][]float64
}

// Response is one executor→driver message.
type Response struct {
	Op  Op
	Err string // non-empty on failure; the rest of the payload is invalid
	Sum float64
	Vec []float64
	// Spans is the trace trailer: the executor-side spans completed while
	// serving this request (dispatch + kernel), present only when the
	// request carried a trace context. The driver absorbs them into its
	// own tracer so the assembled trace holds both sides of the RPC. On the
	// wire an attribute value is its string and a start its Unix
	// nanoseconds (executor clock), so that is what the driver receives.
	Spans []obs.SpanRecord
	Data  []float64 // Collapse: the survivors outside [Lo, Hi), for the rebalance to move
}

// errorf builds a failure response for the given op.
func errorf(op Op, format string, args ...any) Response {
	return Response{Op: op, Err: fmt.Sprintf(format, args...)}
}

package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/lattice"
)

// fuzzBytes decodes a fuzz input into request fields. Reading past the
// end yields zeros, so every input decodes.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// mask reads a pool, base or range bound: 0..191 as itself, which covers
// every state and bit of a six-subject lattice and some beyond it, and the
// top 64 byte values as the powers of two up to 2^63.
func (b *fuzzBytes) mask() uint64 {
	c := b.byte()
	if c >= 192 {
		return 1 << (c & 63)
	}
	return uint64(c)
}

// float reads a mass, likelihood, factor or risk. Four byte values are the
// entries a boundary must refuse (NaN, ±Inf, −1); the rest are finite in
// [0, 4), small enough that a bounded request sequence cannot overflow a
// valid shard, so any invalid state the invariant finds came through a
// missing check rather than float range.
func (b *fuzzBytes) float() float64 {
	switch c := b.byte(); c {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return -1
	default:
		return float64(c) / 64
	}
}

// prob reads a branch-table entry: 0..250 as a probability in [0, 1], and
// the top five byte values as entries a boundary must refuse (NaN, ±Inf,
// −1, 1.5).
func (b *fuzzBytes) prob() float64 {
	switch c := b.byte(); c {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return -1
	case 251:
		return 1.5
	default:
		return float64(c) / 250
	}
}

func (b *fuzzBytes) floats(max int) []float64 {
	out := make([]float64, int(b.byte())%(max+1))
	for i := range out {
		out[i] = b.float()
	}
	return out
}

// request decodes one Request, every field from the input whatever the op.
func (b *fuzzBytes) request() Request {
	req := Request{Op: Op(b.byte() % 20), Pool: b.mask(), Base: b.mask(), Lo: b.mask(), Hi: b.mask(), Factor: b.float()}
	req.Lik = b.floats(8)
	req.Risks = b.floats(6)
	req.Data = b.floats(72)
	for range int(b.byte()) % 8 {
		req.Cands = append(req.Cands, b.mask())
	}
	for range int(b.byte()) % 8 {
		req.Order = append(req.Order, int(int8(b.byte())))
	}
	// Up to one pool past lattice.MaxBranchPools; a table takes its pool's
	// popcount+1 entries unless its kind byte is a multiple of 4, which
	// reads a length of its own.
	for range int(b.byte()) % (lattice.MaxBranchPools + 2) {
		pool := b.mask()
		size := bits.OnesCount64(pool) + 1
		if b.byte()%4 == 0 {
			size = int(b.byte()) % 10
		}
		table := make([]float64, size)
		for k := range table {
			table[k] = b.prob()
		}
		req.BranchPools, req.BranchTables = append(req.BranchPools, pool), append(req.BranchTables, table)
	}
	return req
}

// FuzzExecutorDispatch drives one executor's shard through a fuzzed
// sequence of driver requests. The executor sits behind a TCP trust
// boundary, so whatever arrives must leave it sound: dispatch never
// panics, a request it refuses leaves the shard bit-identical, and the
// shard never holds a negative, NaN or infinite state. An accepted
// collapse answers what the driver merges (checkCollapse).
func FuzzExecutorDispatch(f *testing.F) {
	e := NewExecutor(1)
	f.Cleanup(e.Close)

	// prior: four subjects, states [0, 16).
	prior := []byte{3, 0, 15}
	req := func(op Op, pool, base, lo, hi, factor byte, lik ...byte) []byte {
		return append([]byte{byte(op), pool, base, lo, hi, factor, byte(len(lik))}, append(lik, 0, 0, 0, 0, 0)...)
	}
	// branch is a look-ahead read: op with the ordering of subjects 0..k−1
	// (prefix scan) and the given branch fields, raw.
	branch := func(op Op, k byte, fields ...byte) []byte {
		out := []byte{byte(op), 0, 0, 0, 0, 0, 0, 0, 0, 0, k}
		for i := byte(0); i < k; i++ {
			out = append(out, i)
		}
		return append(out, fields...)
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add(prior)
	f.Add(cat(prior, req(OpUpdateMul, 3, 0, 0, 0, 0, 60, 20, 5)))
	f.Add(cat(prior, req(OpDotLik, 1, 0, 0, 0, 0, 64, 0), req(OpScale, 0, 0, 0, 0, 128)))
	f.Add(cat(prior, req(OpCollapse, 2, 2, 0, 0, 80), req(OpLoadShard, 0, 0, 0, 8, 0)))
	f.Add(cat(prior, req(OpEntropy, 0, 0, 0, 0, 0), req(OpMarginals, 0, 0, 0, 0, 0), req(OpFetch, 0, 0, 4, 12, 0), req(OpMass, 0, 0, 0, 0, 0)))
	// Branch reads: one valid (pools {0,1} and {2}), then one per refusal —
	// eight pools, a table of the wrong length, a NaN entry, an entry above
	// 1, and a pool with a bit at the shard's N (bit 4 of a 4-subject shard).
	f.Add(cat(prior, branch(OpMarginals, 0, 2, 3, 1, 5, 200, 240, 4, 1, 10, 230), branch(OpPrefix, 3, 1, 3, 1, 5, 200, 240)))
	f.Add(cat(prior, branch(OpMarginals, 0, 8, 1, 1, 0, 100, 1, 1, 0, 100, 1, 1, 0, 100, 1, 1, 0, 100, 1, 1, 0, 100, 1, 1, 0, 100, 1, 1, 0, 100, 1, 1, 0, 100)))
	f.Add(cat(prior, branch(OpPrefix, 2, 1, 3, 0, 2, 5, 200)))
	f.Add(cat(prior, branch(OpMarginals, 0, 1, 3, 1, 5, 255, 240)))
	f.Add(cat(prior, branch(OpPrefix, 2, 1, 1, 1, 5, 251)))
	f.Add(cat(prior, branch(OpMarginals, 0, 1, 16, 1, 5, 200)))
	f.Add(cat(prior, req(OpCollapse, 1, 0, 2, 6, 0)))   // ranged: states 2..5 stay, the rest leave
	f.Add(cat(prior, req(OpCollapse, 8, 8, 0, 0, 255))) // a NaN Factor, which a collapse ignores
	f.Add(cat(prior, req(OpCollapse, 8, 0, 5, 3, 0)))   // an inverted range, refused
	// Collapses at and above lattice's copy width (bit 8) on a six-subject
	// shard with a ragged lo, states [5, 64), with both bases.
	ragged := []byte{5, 5, 58}
	f.Add(cat(ragged, req(OpCollapse, 8, 0, 0, 0, 0), req(OpCollapse, 16, 16, 20, 40, 0)))
	f.Add(cat(ragged, req(OpCollapse, 32, 32, 0, 0, 0), req(OpCollapse, 8, 0, 3, 9, 0)))
	f.Add(cat(ragged, req(OpCollapse, 16, 0, 0, 0, 0), req(OpCollapse, 8, 8, 0, 32, 0)))

	f.Fuzz(func(t *testing.T, in []byte) {
		b := fuzzBytes(in)
		n := 1 + int(b.byte())%6
		size := uint64(1) << n
		lo := b.mask() % size
		hi := lo + 1 + b.mask()%(size-lo)
		risks := make([]float64, n)
		for i := range risks {
			risks[i] = 0.05 + 0.1*float64(i)
		}
		if r := e.dispatch(Request{Op: OpBuildPrior, Risks: risks, Lo: lo, Hi: hi}); r.Err != "" {
			t.Fatalf("prior N=%d [%d,%d): %s", n, lo, hi, r.Err)
		}
		for step := 0; step < 64 && len(b) > 0; step++ {
			req := b.request()
			n0, lo0, before := e.n, e.lo, append([]float64(nil), e.data...)
			resp := e.dispatch(req)
			if resp.Err != "" && !sameShard(e.n, e.lo, e.data, n0, lo0, before) {
				t.Fatalf("step %d: refused %s (%s) changed the shard", step, req.Op, resp.Err)
			}
			if i := lattice.FirstInvalid(e.data); i >= 0 {
				t.Fatalf("step %d: after %s the shard holds %v at state %d", step, req.Op, e.data[i], e.lo+uint64(i))
			}
			if req.Op == OpCollapse && resp.Err == "" {
				if err := checkCollapse(e, req, resp); err != "" {
					t.Fatalf("step %d: collapse %+v: %s", step, req, err)
				}
			}
		}
	})
}

func sameShard(n int, lo uint64, data []float64, n0 int, lo0 uint64, data0 []float64) bool {
	if n != n0 || lo != lo0 || len(data) != len(data0) {
		return false
	}
	for i := range data {
		if math.Float64bits(data[i]) != math.Float64bits(data0[i]) {
			return false
		}
	}
	return true
}

// checkCollapse checks an accepted collapse's response against the shard it
// left: one marginal partial per remaining subject, the survivors' total
// to 1e-12 relative of their plain sum, and in Data exactly the survivors
// outside the request's range, in state order.
func checkCollapse(e *Executor, req Request, resp Response) string {
	if len(resp.Vec) != e.n {
		return fmt.Sprintf("%d marginal partials for %d subjects", len(resp.Vec), e.n)
	}
	var plain float64
	var outside []float64
	for j, w := range e.data {
		plain += w
		if s := e.lo + uint64(j); s < req.Lo || s >= req.Hi {
			outside = append(outside, w)
		}
	}
	if math.Abs(resp.Sum-plain) > 1e-12*plain {
		return fmt.Sprintf("total %v, survivors sum to %v", resp.Sum, plain)
	}
	if len(resp.Data) != len(outside) || !sameShard(0, 0, resp.Data, 0, 0, outside) {
		return fmt.Sprintf("returned %v outside [%d,%d), want %v", resp.Data, req.Lo, req.Hi, outside)
	}
	return ""
}

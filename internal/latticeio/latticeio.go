// Package latticeio is the raw codec of a dense posterior: the payload a
// session checkpoint (core.SaveSession) carries for the dense and cluster
// backends.
//
// Surveillance campaigns are long-lived: a cohort's posterior accumulates
// evidence across lab round-trips that are hours apart, and an operator
// restarting the service must not lose it. A checkpoint captures
// everything needed to resume inference — cohort risks, the response
// model, the test counter, and the full posterior — in a versioned binary
// format:
//
//	magic "SBGTCKPT" | version u16 | gob header | 2^N little-endian f64
//
// The header travels by gob (it holds an interface value: the response
// model), while the posterior — the bulk of the bytes — is written as raw
// little-endian float64s in 64 KiB chunks, so a 2^24-state checkpoint
// streams at I/O speed instead of gob-encoding 16M values one by one.
// LoadRaw rejects a truncated stream; lattice.Restore validates and
// renormalizes what it decoded, so a corrupted posterior is rejected
// rather than resumed.
package latticeio

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/dilution"
	"repro/internal/lattice"
)

const magic = "SBGTCKPT"

// version is the current checkpoint format version.
const version uint16 = 1

// header is the gob-encoded metadata block.
type header struct {
	Risks    []float64
	Response dilution.Response
	Tests    int
	States   uint64
}

func init() {
	// Register every concrete response model so the interface value in the
	// header round-trips. Third-party Response implementations must be
	// registered by the caller with gob.Register before SaveRaw/LoadRaw.
	gob.Register(dilution.Ideal{})
	gob.Register(dilution.Binary{})
	gob.Register(dilution.Hyperbolic{})
	gob.Register(dilution.Logistic{})
	gob.Register(dilution.Subsample{})
	gob.Register(dilution.CtValue{})
}

// chunkStates is how many float64s each posterior chunk carries (64 KiB).
const chunkStates = 8192

// SaveRaw writes a checkpoint from raw components: the prior risks, the
// response model, the test counter, and the full posterior in state
// order (length 2^len(risks)) — the dense payload of a posterior.Snapshot,
// whichever backend it was taken from.
func SaveRaw(w io.Writer, risks []float64, resp dilution.Response, tests int, post []float64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("latticeio: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, version); err != nil {
		return fmt.Errorf("latticeio: write version: %w", err)
	}
	if uint64(len(post)) != uint64(1)<<uint(len(risks)) {
		return fmt.Errorf("latticeio: posterior has %d states, cohort of %d needs %d",
			len(post), len(risks), uint64(1)<<uint(len(risks)))
	}
	h := header{
		Risks:    append([]float64(nil), risks...),
		Response: resp,
		Tests:    tests,
		States:   uint64(len(post)),
	}
	if err := gob.NewEncoder(bw).Encode(&h); err != nil {
		return fmt.Errorf("latticeio: encode header: %w", err)
	}
	// Stream the posterior in fixed-size chunks of raw little-endian
	// float64s; the file is one contiguous state-order array.
	buf := make([]byte, 8*chunkStates)
	for off := 0; off < len(post); off += chunkStates {
		end := off + chunkStates
		if end > len(post) {
			end = len(post)
		}
		n := 0
		for _, v := range post[off:end] {
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
			n += 8
		}
		if _, err := bw.Write(buf[:n]); err != nil {
			return fmt.Errorf("latticeio: write posterior: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("latticeio: flush: %w", err)
	}
	return nil
}

// LoadRaw reads a checkpoint from r and returns its raw components
// (risks, response, test counter, state-order posterior). It checks the
// framing only; the posterior itself is validated and renormalized by
// whoever builds a model from it (lattice.Restore, through
// posterior.FromSnapshot).
func LoadRaw(r io.Reader) ([]float64, dilution.Response, int, []float64, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, nil, 0, nil, fmt.Errorf("latticeio: read magic: %w", err)
	}
	if string(got) != magic {
		return nil, nil, 0, nil, fmt.Errorf("latticeio: bad magic %q", got)
	}
	var ver uint16
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, nil, 0, nil, fmt.Errorf("latticeio: read version: %w", err)
	}
	if ver != version {
		return nil, nil, 0, nil, fmt.Errorf("latticeio: unsupported version %d (want %d)", ver, version)
	}
	var h header
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		return nil, nil, 0, nil, fmt.Errorf("latticeio: decode header: %w", err)
	}
	if h.Response == nil {
		return nil, nil, 0, nil, fmt.Errorf("latticeio: checkpoint has no response model")
	}
	n := len(h.Risks)
	if n == 0 || n > lattice.MaxSubjects {
		return nil, nil, 0, nil, fmt.Errorf("latticeio: cohort size %d invalid", n)
	}
	if h.States != uint64(1)<<uint(n) {
		return nil, nil, 0, nil, fmt.Errorf("latticeio: header claims %d states for %d subjects", h.States, n)
	}
	// Grow the posterior chunk by chunk rather than allocating all 2^N
	// states up front: the header is attacker-controllable (a corrupt or
	// crafted checkpoint can claim 2^30 states while carrying ten bytes),
	// and a server restoring evicted cohorts must fail on the short read,
	// not commit gigabytes to a lie.
	post := make([]float64, 0, chunkStates)
	buf := make([]byte, 8*chunkStates)
	for off := uint64(0); off < h.States; off += chunkStates {
		end := off + chunkStates
		if end > h.States {
			end = h.States
		}
		nb := int(end-off) * 8
		if _, err := io.ReadFull(br, buf[:nb]); err != nil {
			return nil, nil, 0, nil, fmt.Errorf("latticeio: read posterior (truncated checkpoint?): %w", err)
		}
		for i := uint64(0); i < end-off; i++ {
			post = append(post, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return h.Risks, h.Response, h.Tests, post, nil
}

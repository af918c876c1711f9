package dynet

import (
	"testing"

	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

// TestEngineGoldenResults pins the engine's observable behavior to values
// captured from the pre-CSR map-based implementation: the graph-core and
// zero-allocation engine rewrites must keep executions bit-identical for
// fixed seeds. A change to any number here means the refactor altered
// executions, not just their speed.
func TestEngineGoldenResults(t *testing.T) {
	golden := []struct {
		seed           uint64
		n, extra       int
		rounds         int
		messages       int
		bits           int
		done           bool
		outputChecksum int64
	}{
		{1, 12, 5, 197, 1195, 54386, true, 66009846},
		{0xDEAD, 41, 59, 197, 4094, 214866, true, 820196488},
		{42, 2, 0, 187, 178, 6258, true, 1000132},
		{7, 30, 17, 195, 2937, 142791, true, 435067539},
		{99, 23, 3, 196, 2308, 113285, true, 253029845},
	}
	for _, c := range golden {
		ms := NewMachines(chaosProtocol{}, c.n, nil, c.seed, nil)
		src := rng.New(c.seed ^ 0xABCD)
		adv := AdversaryFunc(func(r int, _ []Action) *graph.Graph {
			return graph.RandomConnected(c.n, c.extra, src.Split(uint64(r)))
		})
		e := &Engine{Machines: ms, Adv: adv, CheckConnectivity: true}
		res, err := e.Run(250)
		if err != nil {
			t.Fatal(err)
		}
		sum := int64(0)
		for v := range res.Outputs {
			sum += res.Outputs[v] * int64(v+1)
			if res.Decided[v] {
				sum += int64(v) * 1000003
			}
		}
		if res.Rounds != c.rounds || res.Messages != c.messages ||
			res.Bits != c.bits || res.Done != c.done || sum != c.outputChecksum {
			t.Errorf("seed %d n %d extra %d: got (rounds %d, msgs %d, bits %d, done %v, sum %d), want (%d, %d, %d, %v, %d)",
				c.seed, c.n, c.extra,
				res.Rounds, res.Messages, res.Bits, res.Done, sum,
				c.rounds, c.messages, c.bits, c.done, c.outputChecksum)
		}
	}
}

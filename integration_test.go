package dyndiam_test

import (
	"fmt"
	"testing"

	"dyndiam"
	"dyndiam/internal/verify"
)

// The integration matrix: every upper-bound protocol on every adversary
// family, audited with the problem-spec checkers of internal/verify. Each
// cell uses a diameter bound safe for its family.
func TestProtocolAdversaryMatrix(t *testing.T) {
	const n = 18

	families := []struct {
		name string
		mk   func(seed uint64) dyndiam.Adversary
		d    int // safe dynamic-diameter bound
	}{
		{"static-ring", func(uint64) dyndiam.Adversary {
			return dyndiam.StaticAdversary(dyndiam.Ring(n))
		}, n / 2},
		{"static-star", func(uint64) dyndiam.Adversary {
			return dyndiam.StaticAdversary(dyndiam.Star(n))
		}, 2},
		{"random", func(s uint64) dyndiam.Adversary {
			return dyndiam.RandomConnectedAdversary(n, n, s)
		}, n - 1},
		{"bounded-diam", func(s uint64) dyndiam.Adversary {
			return dyndiam.BoundedDiameterAdversary(n, 4, n, s)
		}, 8},
		{"t-interval", func(s uint64) dyndiam.Adversary {
			return dyndiam.TIntervalAdversary(n, 5, 6, s)
		}, n - 1},
		{"dual-graph", func(s uint64) dyndiam.Adversary {
			var chords [][2]int
			for i := 0; i < n/2; i++ {
				chords = append(chords, [2]int{i, (i + n/2) % n})
			}
			return dyndiam.DualGraphAdversary(dyndiam.Ring(n), chords, 0.4, s)
		}, n / 2},
	}

	type check func(t *testing.T, inputs []int64, ms []dyndiam.Machine, res *dyndiam.Result)

	protocols := []struct {
		name   string
		proto  dyndiam.Protocol
		inputs func() []int64
		extra  func(d int) map[string]int64
		term   func([]dyndiam.Machine) bool
		rounds int
		verify check
	}{
		{
			name:  "cflood",
			proto: dyndiam.CFlood{},
			inputs: func() []int64 {
				in := make([]int64, n)
				in[0] = 1
				return in
			},
			extra:  func(d int) map[string]int64 { return map[string]int64{dyndiam.ExtraDiameter: int64(d)} },
			term:   dyndiam.NodeDecided(0),
			rounds: 10 * n,
			verify: func(t *testing.T, _ []int64, ms []dyndiam.Machine, res *dyndiam.Result) {
				if err := verify.CFlood(ms, res, 0); err != nil {
					t.Error(err)
				}
			},
		},
		{
			name:  "consensus-known-d",
			proto: dyndiam.KnownDConsensus{},
			inputs: func() []int64 {
				in := make([]int64, n)
				for v := range in {
					in[v] = int64(v % 2)
				}
				return in
			},
			extra:  func(d int) map[string]int64 { return map[string]int64{dyndiam.ExtraDiameter: int64(d)} },
			rounds: 1000000,
			verify: func(t *testing.T, inputs []int64, _ []dyndiam.Machine, res *dyndiam.Result) {
				if err := verify.Consensus(inputs, res); err != nil {
					t.Error(err)
				}
			},
		},
		{
			name:   "leader-elect",
			proto:  dyndiam.LeaderElect{},
			inputs: func() []int64 { return make([]int64, n) },
			extra:  func(int) map[string]int64 { return nil },
			rounds: 10000000,
			verify: func(t *testing.T, _ []int64, _ []dyndiam.Machine, res *dyndiam.Result) {
				if err := verify.Leader(res, n, true); err != nil {
					t.Error(err)
				}
			},
		},
		{
			name:  "max",
			proto: dyndiam.Max{},
			inputs: func() []int64 {
				in := make([]int64, n)
				for v := range in {
					in[v] = int64((v * 31) % 97)
				}
				return in
			},
			extra:  func(d int) map[string]int64 { return map[string]int64{dyndiam.ExtraDiameter: int64(d)} },
			rounds: 1000000,
			verify: func(t *testing.T, inputs []int64, _ []dyndiam.Machine, res *dyndiam.Result) {
				if err := verify.MaxFunction(inputs, res); err != nil {
					t.Error(err)
				}
			},
		},
		{
			name:   "estimate-n",
			proto:  dyndiam.EstimateN{},
			inputs: func() []int64 { return make([]int64, n) },
			extra: func(d int) map[string]int64 {
				return map[string]int64{dyndiam.ExtraDiameter: int64(d), "K": 96}
			},
			rounds: 10000000,
			verify: func(t *testing.T, _ []int64, _ []dyndiam.Machine, res *dyndiam.Result) {
				if err := verify.EstimateWithin(res, n, 0.45); err != nil {
					t.Error(err)
				}
			},
		},
		{
			name:   "hear-from-exact",
			proto:  dyndiam.HearFromExact{},
			inputs: func() []int64 { return make([]int64, n) },
			extra:  func(int) map[string]int64 { return nil },
			rounds: 100000,
			verify: func(t *testing.T, _ []int64, _ []dyndiam.Machine, res *dyndiam.Result) {
				if err := verify.Termination(res, nil); err != nil {
					t.Error(err)
				}
			},
		},
	}

	for _, fam := range families {
		for _, p := range protocols {
			t.Run(fmt.Sprintf("%s/%s", p.name, fam.name), func(t *testing.T) {
				seed := uint64(len(fam.name) + 7*len(p.name))
				inputs := p.inputs()
				ms := dyndiam.NewMachines(p.proto, n, inputs, seed, p.extra(fam.d))
				eng := &dyndiam.Engine{
					Machines:          ms,
					Adv:               fam.mk(seed),
					CheckConnectivity: true,
					Terminated:        p.term,
				}
				res, err := eng.Run(p.rounds)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Done {
					t.Fatalf("%s did not terminate on %s within %d rounds", p.name, fam.name, p.rounds)
				}
				p.verify(t, inputs, ms, res)
			})
		}
	}
}

package dyndiam_test

import (
	"fmt"
	"testing"

	"dyndiam"
	"dyndiam/internal/verify"
)

// The integration matrix: every problem of the internal/verify table on
// every adversary family, posed and audited by its table row. Each cell
// hands the protocol a diameter bound safe for its family.
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

	// The matrix predates the table: these rows keep their earlier
	// subtest names.
	labels := map[string]string{
		"consensus": "consensus-known-d", "estimate": "estimate-n",
		"hearfromexact": "hear-from-exact", "leader": "leader-elect",
	}
	// Each row's termination bound. Known-D CFLOOD confirms at round
	// D ≤ n−1 and a PFLOOD source at round 4·D·⌈log₂(n+1)⌉ ≤ 20(n−1); the
	// other rows share the bound of the protocol family they belong to.
	limits := map[string]int{
		"cflood": 10 * n, "pflood": 40 * n,
		"hearfrom": 100_000, "hearfromexact": 100_000, "majority": 100_000,
		"consensus": 1_000_000, "max": 1_000_000,
		"vialeader": 10_000_000, "leader": 10_000_000,
		"estimate": 10_000_000, "sum": 10_000_000,
	}

	for _, fam := range families {
		for _, name := range verify.Names() {
			prob := verify.MustLookup(name)
			rounds, ok := limits[name]
			if !ok {
				t.Fatalf("no termination bound for %s", name)
			}
			label := name
			if l, ok := labels[name]; ok {
				label = l
			}
			t.Run(fmt.Sprintf("%s/%s", label, fam.name), func(t *testing.T) {
				seed := uint64(len(fam.name) + 7*len(label))
				extra := map[string]int64{dyndiam.ExtraDiameter: int64(fam.d)}
				if name == "estimate" || name == "sum" {
					extra["K"] = 96 // sketch copies enough for the audit's 45% tolerance
				}
				inputs, ms := prob.Machines(n, seed, extra)
				eng := &dyndiam.Engine{
					Machines:          ms,
					Adv:               fam.mk(seed),
					CheckConnectivity: true,
					Terminated:        prob.Terminated(),
				}
				res, err := eng.Run(rounds)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Done {
					t.Fatalf("%s did not terminate on %s within %d rounds", name, fam.name, rounds)
				}
				if err := prob.Audit(inputs, ms, res); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

package harness

import (
	"fmt"
	"slices"

	"dyndiam/internal/chains"
	"dyndiam/internal/disjcp"
	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/protocols/consensus"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/rng"
	"dyndiam/internal/subnet"
	"dyndiam/internal/twoparty"
	"dyndiam/internal/verify"
)

// ReductionRow is one row of the E1/E2 reduction tables.
type ReductionRow struct {
	Q, N            int
	Disj            int // the true DISJOINTNESSCP answer
	Oracle          string
	Claim           int // Alice's answer
	ClaimCorrect    bool
	OracleErrored   bool // the oracle's own output violated its problem spec
	Bits            int  // total forwarded bits
	BitsPerRound    float64
	LemmaViolations int
}

// CFloodReduction runs the Theorem 6 experiment (E1) for each q: on both a
// 1-instance and a 0-instance, with a fast oracle (assumes the diameter-10
// composition) and the safe pessimistic oracle. The expected dichotomy:
// the fast oracle classifies 1-instances correctly but *errs as a CFLOOD
// protocol* on 0-instances; the safe oracle is always a correct CFLOOD
// protocol but never terminates within the horizon.
func (s Sweep) CFloodReduction(qs []int, n int, seed uint64) ([]ReductionRow, error) {
	var rows []ReductionRow
	src := rng.New(seed)
	for _, q := range qs {
		for _, zero := range []bool{false, true} {
			var in disjcp.Instance
			if zero {
				in = disjcp.RandomZero(n, q, 1, src)
			} else {
				in = disjcp.RandomOne(n, q, src)
			}
			net, err := subnet.NewCFlood(in)
			if err != nil {
				return nil, err
			}
			for _, oracle := range []struct {
				name  string
				extra map[string]int64
			}{
				{"fast(D:=10)", map[string]int64{flood.ExtraD: 10}},
				{"safe(D:=N-1)", nil},
			} {
				setup := twoparty.FromCFlood(net, flood.CFlood{}, seed+uint64(q), oracle.extra)
				setup.Metrics = s.Metrics
				res, err := twoparty.Run(setup, true)
				if err != nil {
					return nil, err
				}
				claim := 0
				if res.Claim {
					claim = 1
				}
				// Oracle error: the reference source confirmed
				// within the horizon, but the CFLOOD audit fails.
				src, ref := net.Source(), &dynet.Result{Decided: res.ReferenceDecided}
				oracleErr := ref.Decided[src] && verify.CFlood(setup.Inputs, res.ReferenceMachines, ref, src) != nil
				bits := res.BitsAliceToBob + res.BitsBobToAlice
				rows = append(rows, ReductionRow{
					Q: q, N: net.N, Disj: in.Eval(),
					Oracle: oracle.name, Claim: claim,
					ClaimCorrect:    claim == in.Eval(),
					OracleErrored:   oracleErr,
					Bits:            bits,
					BitsPerRound:    float64(bits) / float64(res.Rounds),
					LemmaViolations: len(res.LemmaViolations),
				})
			}
		}
	}
	return rows, nil
}

// FormatReductionTable renders E1/E2 rows.
func FormatReductionTable(caption string, rows []ReductionRow) *Table {
	t := &Table{
		Caption: caption,
		Header:  []string{"q", "N", "DISJ", "oracle", "claim", "claim ok", "oracle err", "bits", "bits/rnd", "lemma viol"},
	}
	for _, r := range rows {
		t.Add(r.Q, r.N, r.Disj, r.Oracle, r.Claim, r.ClaimCorrect, r.OracleErrored, r.Bits, r.BitsPerRound, r.LemmaViolations)
	}
	return t
}

// ConsensusReduction runs the Theorem 7 experiment (E2): on the Λ+Υ
// composition a fast consensus oracle (fixed small-diameter horizon,
// legitimate when the network is Λ alone) decides within the horizon; on
// 0-instances the two sides decide opposite values — an agreement
// violation the rows report.
func (s Sweep) ConsensusReduction(qs []int, seed uint64) ([]ConsensusReductionRow, error) {
	return s.ConsensusReductionOracle(qs, seed, nil, nil)
}

// ConsensusReductionOracle is ConsensusReduction with a caller-chosen
// oracle protocol and Extra parameters. A nil oracle selects the default:
// consensus.KnownD with a gossip horizon of 3/4 of the simulation horizon.
// Passing consensus.ViaLeader (the paper's own Section 7 protocol) shows
// the same dichotomy for LEADERELECT-based consensus — which is how the
// CONSENSUS lower bound carries to LEADERELECT.
func (s Sweep) ConsensusReductionOracle(qs []int, seed uint64, oracle dynet.Protocol, extra map[string]int64) ([]ConsensusReductionRow, error) {
	var rows []ConsensusReductionRow
	src := rng.New(seed)
	for _, q := range qs {
		for _, zero := range []bool{false, true} {
			var in disjcp.Instance
			if zero {
				in = disjcp.RandomZero(1, q, 1, src)
			} else {
				in = disjcp.RandomOne(1, q, src)
			}
			net, err := subnet.NewConsensus(in)
			if err != nil {
				return nil, err
			}
			o := oracle
			ex := extra
			if o == nil {
				o = consensus.KnownD{}
				ex = map[string]int64{
					consensus.ExtraRounds: int64(3 * net.Horizon() / 4),
				}
			}
			setup := twoparty.FromConsensus(net, o, seed+uint64(q), ex)
			setup.Metrics = s.Metrics
			res, err := twoparty.Run(setup, true)
			if err != nil {
				return nil, err
			}
			row := ConsensusReductionRow{
				Q: q, N: net.N, NPrime: net.NPrime, Disj: in.Eval(),
				Claim:           boolToInt(res.Claim),
				Bits:            res.BitsAliceToBob + res.BitsBobToAlice,
				LemmaViolations: len(res.LemmaViolations),
			}
			row.ClaimCorrect = row.Claim == row.Disj
			// Agreement audit over the reference execution's decided
			// nodes; a run in which none decided violates nothing.
			_, disagree := verify.Agreement(&dynet.Result{Outputs: res.ReferenceOutputs, Decided: res.ReferenceDecided})
			row.AgreementViolated = disagree != nil && slices.Contains(res.ReferenceDecided, true)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ConsensusReductionRow is one row of E2.
type ConsensusReductionRow struct {
	Q, N, NPrime      int
	Disj              int
	Claim             int
	ClaimCorrect      bool
	AgreementViolated bool
	Bits              int
	LemmaViolations   int
}

// FormatConsensusReductionTable renders E2 rows.
func FormatConsensusReductionTable(rows []ConsensusReductionRow) *Table {
	t := &Table{
		Caption: "E2: Theorem 7 reduction (Λ+Υ): fast consensus with N' accuracy 1/3 violates agreement on 0-instances",
		Header:  []string{"q", "N", "N'", "DISJ", "claim", "claim ok", "agreement violated", "bits", "lemma viol"},
	}
	for _, r := range rows {
		t.Add(r.Q, r.N, r.NPrime, r.Disj, r.Claim, r.ClaimCorrect, r.AgreementViolated, r.Bits, r.LemmaViolations)
	}
	return t
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DiameterGapRow is one row of the construction-level diameter check
// (the structural heart of Theorem 6; also E8's node-count data).
type DiameterGapRow struct {
	Q, N     int
	Disj     int
	Diameter int
}

// ConstructionDiameters measures the dynamic diameter of the Theorem 6
// composition for both answers at each q: O(1) for 1-instances, Ω(q) for
// 0-instances.
func ConstructionDiameters(qs []int, n int, seed uint64) ([]DiameterGapRow, error) {
	var rows []DiameterGapRow
	src := rng.New(seed)
	for _, q := range qs {
		for _, zero := range []bool{false, true} {
			var in disjcp.Instance
			if zero {
				in = disjcp.RandomZero(n, q, 1, src)
			} else {
				in = disjcp.RandomOne(n, q, src)
			}
			net, err := subnet.NewCFlood(in)
			if err != nil {
				return nil, err
			}
			d, err := measureCompositionDiameter(net, 8*q)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DiameterGapRow{Q: q, N: net.N, Disj: in.Eval(), Diameter: d})
		}
	}
	return rows, nil
}

func measureCompositionDiameter(net *subnet.CFloodNet, horizon int) (int, error) {
	graphs := make([]*graph.Graph, horizon)
	for r := 1; r <= horizon; r++ {
		graphs[r-1] = net.Topology(chains.Reference, r, nil)
	}
	d, exact := dynet.DynamicDiameter(graphs)
	if !exact {
		return d, fmt.Errorf("harness: horizon %d did not certify composition diameter (>= %d)", horizon, d)
	}
	return d, nil
}

// FormatDiameterTable renders construction-diameter rows.
func FormatDiameterTable(rows []DiameterGapRow) *Table {
	t := &Table{
		Caption: "Theorem 6 composition: diameter O(1) iff DISJ=1, Ω(q) iff DISJ=0",
		Header:  []string{"q", "N", "DISJ", "dynamic diameter"},
	}
	for _, r := range rows {
		t.Add(r.Q, r.N, r.Disj, r.Diameter)
	}
	return t
}

package dynet

import "dyndiam/internal/graph"

// RoundStats aggregates what happened in one round.
type RoundStats struct {
	Round   int
	Senders int
	Bits    int
	Edges   int
}

// Trace records an execution round by round. With KeepTopologies it also
// records the delivered topology sequence as a Schedule, one diff per
// round, so its memory grows with the churn rather than with
// rounds * edges.
type Trace struct {
	// KeepTopologies records every round's delivered graph into Schedule.
	KeepTopologies bool

	Stats []RoundStats
	// Schedule is the recorded topology sequence: its round r is the
	// graph delivered in Stats[r-1]'s round.
	Schedule Schedule

	prev *graph.Graph // the last recorded round
	diff EdgeDiff
}

func (t *Trace) record(r int, g *graph.Graph, actions []Action, outgoing []Message) {
	st := RoundStats{Round: r, Edges: g.M()}
	for v, a := range actions {
		if a == Send {
			st.Senders++
			st.Bits += outgoing[v].NBits
		}
	}
	if t.KeepTopologies {
		if t.prev == nil {
			t.prev = graph.New(g.N())
		}
		t.Schedule.appendRound(t.prev, g, &t.diff)
		t.prev.CopyFrom(g)
	}
	t.Stats = append(t.Stats, st)
}

// Topologies returns the recorded per-round graphs (round 1 first), each
// freshly built from Schedule. It panics if KeepTopologies was not set.
func (t *Trace) Topologies() []*graph.Graph {
	if !t.KeepTopologies {
		//lint:allow panicfree documented API contract: Topologies requires KeepTopologies; misuse is a caller bug
		panic("dynet: trace did not keep topologies")
	}
	return t.Schedule.Graphs()
}

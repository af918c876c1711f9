// Command obsview summarizes and merges JSONL event streams captured by
// the observability layer (cmd/leaderelect -obs-out, cmd/reduction
// -obs-out, or any obs.WriteJSONL caller).
//
//	obsview run.jsonl                     summarize one stream
//	obsview a.jsonl b.jsonl               merge by round, then summarize
//	obsview -merged-out all.jsonl ...     also write the merged stream
//	obsview -trace-out run.json ...       also convert to a Chrome trace
//
// The summary reports per-kind event counts, the round span, per-name
// phase-entry counts with run-length statistics, span durations (matched
// begin/end pairs per track/node/name lane, plus unmatched counts), the
// flood frontier's final coverage, lock churn, and the total send/bit
// volume — the quantities the paper's round and communication bounds are
// stated in.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"dyndiam"
	"dyndiam/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("obsview: ")

	var (
		mergedOut = flag.String("merged-out", "", "write the merged event stream as JSONL to this file")
		trcOut    = flag.String("trace-out", "", "write the merged stream as Chrome trace-event JSON to this file")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: obsview [-merged-out FILE] [-trace-out FILE] events.jsonl...")
		os.Exit(2)
	}

	events, err := loadMerged(flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(summarize(events))

	if *mergedOut != "" {
		if err := cliutil.WriteWith(*mergedOut, func(f *os.File) error {
			return dyndiam.WriteEventsJSONL(f, events)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *mergedOut)
	}
	if *trcOut != "" {
		if err := cliutil.WriteWith(*trcOut, func(f *os.File) error {
			return dyndiam.WriteChromeTrace(f, events)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (load at ui.perfetto.dev)\n", *trcOut)
	}
}

// loadMerged reads every file and interleaves the streams by round. The
// sort is stable, so events from the same round keep first their file
// order and then their within-file order — deterministic for any fixed
// argument list.
func loadMerged(paths []string) ([]dyndiam.ObsEvent, error) {
	var all []dyndiam.ObsEvent
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		evs, err := dyndiam.ReadEventsJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Round < all[j].Round })
	return all, nil
}

// summarize renders the textual report for a merged stream.
func summarize(events []dyndiam.ObsEvent) string {
	var b strings.Builder
	if len(events) == 0 {
		return "no events\n"
	}

	minRound, maxRound := events[0].Round, events[0].Round
	var kindCount [16]int
	var sends, bits int64
	decides := 0
	phases := map[string]*phaseStat{}
	var phaseNames []string
	lastEnter := map[[2]int32]int32{} // (track,node) -> round of last phase entry
	var spanTotal, spanCount int64
	locks, rollbacks, spoils := 0, 0, 0
	spans := map[string]*spanStat{}
	var spanNames []string
	openBegins := map[spanLane][]int32{} // lane -> stack of open begin times
	var frontierLast *dyndiam.ObsEvent

	for _, ev := range events {
		if ev.Round < minRound {
			minRound = ev.Round
		}
		if ev.Round > maxRound {
			maxRound = ev.Round
		}
		if int(ev.Kind) < len(kindCount) {
			kindCount[ev.Kind]++
		}
		switch ev.Kind {
		case dyndiam.ObsSend:
			sends++
			bits += ev.A
		case dyndiam.ObsDecide:
			decides++
		case dyndiam.ObsPhaseEnter:
			name := ev.Name.String()
			if name == "" {
				name = "phase"
			}
			st := phases[name]
			if st == nil {
				st = &phaseStat{first: ev.Round}
				phases[name] = st
				phaseNames = append(phaseNames, name)
			}
			st.count++
			st.last = ev.Round
			key := [2]int32{ev.Track, ev.Node}
			if prev, ok := lastEnter[key]; ok && ev.Round > prev {
				spanTotal += int64(ev.Round - prev)
				spanCount++
			}
			lastEnter[key] = ev.Round
		case dyndiam.ObsLockAcquire:
			locks++
		case dyndiam.ObsLockRollback:
			rollbacks++
		case dyndiam.ObsSpoilMark:
			spoils++
		case dyndiam.ObsSpanBegin, dyndiam.ObsSpanEnd:
			name := ev.Name.String()
			if name == "" {
				name = "span"
			}
			st := spans[name]
			if st == nil {
				st = &spanStat{}
				spans[name] = st
				spanNames = append(spanNames, name)
			}
			lane := spanLane{track: ev.Track, node: ev.Node, name: name}
			if ev.Kind == dyndiam.ObsSpanBegin {
				openBegins[lane] = append(openBegins[lane], ev.Round)
				break
			}
			// End: match the innermost open begin on the same lane.
			stack := openBegins[lane]
			if len(stack) == 0 {
				st.strayEnds++
				break
			}
			begin := stack[len(stack)-1]
			openBegins[lane] = stack[:len(stack)-1]
			st.matched++
			st.total += int64(ev.Round - begin)
		case dyndiam.ObsFrontier:
			ev := ev
			frontierLast = &ev
		}
	}
	for lane, stack := range openBegins {
		spans[lane.name].openBegins += len(stack)
	}

	fmt.Fprintf(&b, "%d events over rounds %d..%d\n", len(events), minRound, maxRound)
	for k := dyndiam.ObsRoundStart; k <= dyndiam.ObsCustom; k++ {
		if kindCount[k] > 0 {
			fmt.Fprintf(&b, "  %-14s %8d\n", k.String(), kindCount[k])
		}
	}
	if sends > 0 {
		fmt.Fprintf(&b, "traffic: %d sends, %d payload bits\n", sends, bits)
	}
	if decides > 0 {
		fmt.Fprintf(&b, "decisions: %d\n", decides)
	}
	if locks+rollbacks > 0 {
		fmt.Fprintf(&b, "locks: %d acquired, %d rolled back\n", locks, rollbacks)
	}
	if spoils > 0 {
		fmt.Fprintf(&b, "spoil marks: %d\n", spoils)
	}
	if len(phaseNames) > 0 {
		fmt.Fprintf(&b, "phases:\n")
		for _, name := range phaseNames {
			st := phases[name]
			fmt.Fprintf(&b, "  %-14s %6d entries, rounds %d..%d\n", name, st.count, st.first, st.last)
		}
		if spanCount > 0 {
			fmt.Fprintf(&b, "  mean rounds between a node's phase entries: %.1f\n",
				float64(spanTotal)/float64(spanCount))
		}
	}
	if len(spanNames) > 0 {
		fmt.Fprintf(&b, "spans:\n")
		for _, name := range spanNames {
			st := spans[name]
			if st.matched > 0 {
				fmt.Fprintf(&b, "  %-14s %6d matched, total %d ticks, mean %.1f\n",
					name, st.matched, st.total, float64(st.total)/float64(st.matched))
			}
			if st.openBegins > 0 || st.strayEnds > 0 {
				fmt.Fprintf(&b, "  %-14s %6d unclosed begins, %d stray ends\n",
					name, st.openBegins, st.strayEnds)
			}
		}
	}
	if frontierLast != nil {
		fmt.Fprintf(&b, "frontier: %d informed at round %d (last sample: %d newly)\n",
			frontierLast.B, frontierLast.Round, frontierLast.A)
	}
	return b.String()
}

// spanLane identifies one span nesting stack: begins and ends match only
// within the same (track, node, name), mirroring the Chrome exporter.
type spanLane struct {
	track, node int32
	name        string
}

// spanStat aggregates one span name across every lane it appears on.
type spanStat struct {
	matched    int   // begin/end pairs
	total      int64 // summed logical durations of matched pairs
	openBegins int   // begins never closed
	strayEnds  int   // ends with no open begin on their lane
}

type phaseStat struct {
	count       int
	first, last int32
}

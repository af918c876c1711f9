// Command dynnode runs distributed executions: real per-node OS
// processes, synchronized by a coordinator-driven round barrier over TCP,
// with CONGEST budgets enforced at the socket and faults injected into
// the byte stream (internal/wire).
//
// Modes:
//
//	dynnode -role launch -proto cflood -n 8 -adv ring -rounds 64
//	    Coordinator in-process plus n supervised node child processes on
//	    loopback. Crashed children (e.g. -kill-node) are relaunched and
//	    rejoin the run via the coordinator's replay log.
//
//	dynnode -role coord -addr 127.0.0.1:9701 -proto leader -n 16
//	    Coordinator only; node processes connect from elsewhere.
//
//	dynnode -role node -addr 127.0.0.1:9701 -id 3
//	    One node process. Everything but (id, addr) arrives in the
//	    WELCOME frame.
//
// The flagship robustness demo — kill a node process mid-run with
// SIGKILL, watch it rejoin, and verify the execution is byte-identical
// to the in-process engine:
//
//	dynnode -role launch -proto cflood -n 8 -adv ring -rounds 64 \
//	    -fault '{"seed":7,"drop":0.1,"corrupt":0.1}' \
//	    -kill-node 3 -kill-round 5 -diff-inprocess
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/obs"
	"dyndiam/internal/verify"
	"dyndiam/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dynnode: ")

	var (
		role = flag.String("role", "launch", "launch|coord|node")
		addr = flag.String("addr", "127.0.0.1:0", "coordinator address (listen for coord/launch, dial for node)")
		id   = flag.Int("id", 0, "node id (role node)")

		proto     = flag.String("proto", "cflood", "protocol: "+strings.Join(verify.Names(), "|"))
		n         = flag.Int("n", 8, "number of nodes")
		seed      = flag.Uint64("seed", 1, "public-coin seed")
		rounds    = flag.Int("rounds", 4096, "round budget")
		advName   = flag.String("adv", "ring", "adversary: "+strings.Join(adversaries.Names(), "|"))
		advD      = flag.Int("d", 4, "target per-round diameter for -adv bounded; interval length for -adv tinterval; rewires per round for -adv deltachurn")
		dKnown    = flag.Int("D", 0, "known diameter bound handed to the protocol (0 = unknown)")
		check     = flag.Bool("check-connectivity", false, "verify each round's topology is connected")
		faultJSON = flag.String("fault", "", `fault spec JSON, e.g. '{"seed":7,"drop":0.1,"corrupt":0.05}'`)

		roundTimeout  = flag.Duration("round-timeout", 2*time.Second, "base per-attempt round barrier deadline")
		retries       = flag.Int("retries", 8, "max re-pokes per round barrier")
		retryBase     = flag.Duration("retry-base", 25*time.Millisecond, "retry backoff/jitter base")
		relaunchDelay = flag.Duration("relaunch-delay", 100*time.Millisecond, "pause before relaunching a crashed child (launch)")

		killNode  = flag.Int("kill-node", -1, "SIGKILL this node's child process when -kill-round starts (launch)")
		killRound = flag.Int("kill-round", 0, "round at whose start -kill-node is killed (0 = never)")

		diffInProcess = flag.Bool("diff-inprocess", false, "after the run, replay on dynet.Engine and fail on any divergence")
		requireRes    = flag.Bool("require-resilience", false, "fail unless retry/reconnect machinery demonstrably ran")
		traceOut      = flag.String("trace-out", "", "write run artifacts (result, trace, metrics, transport) as JSON")
	)
	flag.Parse()

	switch *role {
	case "node":
		if err := wire.RunNode(wire.NodeConfig{ID: *id, Addr: *addr}); err != nil {
			log.Fatal(err)
		}
		return
	case "coord", "launch":
	default:
		log.Fatalf("unknown role %q", *role)
	}

	spec := wire.RunSpec{
		Proto: *proto, N: *n, Seed: *seed, MaxRounds: *rounds,
		CheckConnectivity: *check, Adv: *advName, AdvD: *advD,
	}
	if *dKnown > 0 {
		spec.Extra = map[string]int64{"D": int64(*dKnown)}
	}
	if *faultJSON != "" {
		fs, err := faults.ParseSpec([]byte(*faultJSON))
		if err != nil {
			log.Fatal(err)
		}
		spec.Fault = fs
	}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator   %s\n", ln.Addr())

	var sups []*supervisor
	runDone := make(chan struct{})
	if *role == "launch" {
		exe, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		sups = make([]*supervisor, *n)
		for v := range sups {
			sups[v] = &supervisor{exe: exe, id: v, addr: ln.Addr().String(), relaunchDelay: *relaunchDelay}
			sups[v].start(runDone)
		}
	}

	tr, ring, reg := wire.NewArtifacts(1 << 16)
	var sink obs.Sink = ring
	if *killRound > 0 && *killNode >= 0 {
		if *role != "launch" {
			log.Fatal("-kill-node needs -role launch (there is no child to kill otherwise)")
		}
		kn := *killNode
		sink = &killSink{Sink: ring, round: int32(*killRound), fire: func() {
			log.Printf("SIGKILL node %d at round %d", kn, *killRound)
			sups[kn].kill()
		}}
	}
	transport := obs.NewRegistry()
	res, runErr := wire.Run(wire.Config{
		Spec: spec, Listener: ln,
		Trace: tr, Obs: sink, Metrics: reg, Transport: transport,
		RoundTimeout: *roundTimeout, MaxRetries: *retries, RetryBase: *retryBase,
	})
	close(runDone)
	for _, s := range sups {
		s.waitDone(2 * time.Second)
	}
	dist := wire.CollectArtifacts(res, runErr, tr, ring, reg)

	os.Exit(report(spec, dist, transport, *diffInProcess, *requireRes, *traceOut))
}

// killSink triggers the SIGKILL demo at a deterministic point — the
// coordinator's RoundStart emission — instead of a wall-clock timer.
type killSink struct {
	obs.Sink
	round int32
	fire  func()
	once  sync.Once
}

func (k *killSink) Emit(ev obs.Event) {
	if ev.Kind == obs.KindRoundStart && ev.Round >= k.round {
		k.once.Do(k.fire)
	}
	k.Sink.Emit(ev)
}

// supervisor owns one node child process: spawn, relaunch after crashes
// (which is what turns a SIGKILL into a rejoin), stop with the run.
type supervisor struct {
	exe, addr     string
	id            int
	relaunchDelay time.Duration

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{}
}

func (s *supervisor) start(runDone <-chan struct{}) {
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		for attempt := 0; attempt < 16; attempt++ {
			if attempt > 0 {
				time.Sleep(s.relaunchDelay)
				select {
				case <-runDone:
					return
				default:
				}
				log.Printf("relaunching node %d (attempt %d)", s.id, attempt)
			}
			cmd := exec.Command(s.exe, "-role", "node", "-id", strconv.Itoa(s.id), "-addr", s.addr)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// Start under the lock and publish only afterwards, so a
			// concurrent kill() never sees a cmd whose Process is still
			// being written by Start.
			s.mu.Lock()
			err := cmd.Start()
			if err == nil {
				s.cmd = cmd
			}
			s.mu.Unlock()
			if err != nil {
				log.Printf("node %d failed to start: %v", s.id, err)
				return
			}
			err = cmd.Wait()
			if err == nil {
				return // clean exit: the node saw FINISH
			}
			select {
			case <-runDone:
				return
			default:
			}
		}
		log.Printf("node %d: relaunch budget exhausted", s.id)
	}()
}

func (s *supervisor) kill() {
	s.mu.Lock()
	cmd := s.cmd
	s.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
	}
}

func (s *supervisor) waitDone(grace time.Duration) {
	select {
	case <-s.done:
	case <-time.After(grace):
		s.kill()
		<-s.done
	}
}

// report prints the run summary and transport counters, optionally
// writes the JSON artifact, replays the in-process twin, and checks the
// resilience machinery ran. Exit codes: 0 ok, 1 run error, 2 divergence
// or unexercised resilience.
func report(spec wire.RunSpec, dist *wire.RunArtifacts, transport *obs.Registry, diff, requireRes bool, traceOut string) int {
	exit := 0
	if dist.Err != nil {
		log.Printf("run error: %v", dist.Err)
		exit = 1
	}
	if dist.Res != nil {
		fmt.Printf("protocol      %s\n", spec.Proto)
		fmt.Printf("nodes         %d\n", spec.N)
		fmt.Printf("adversary     %s\n", spec.Adv)
		fmt.Printf("terminated    %v (round %d)\n", dist.Res.Done, dist.Res.Rounds)
		fmt.Printf("messages      %d\n", dist.Res.Messages)
		fmt.Printf("payload bits  %d\n", dist.Res.Bits)
		decided := 0
		for _, ok := range dist.Res.Decided {
			if ok {
				decided++
			}
		}
		fmt.Printf("decided nodes %d/%d\n", decided, spec.N)
	}
	counters := transport.Snapshot()
	for _, p := range counters {
		fmt.Printf("%-34s %d\n", p.Name, p.Value)
	}

	if traceOut != "" {
		if err := writeArtifact(traceOut, spec, dist, counters); err != nil {
			log.Printf("trace-out: %v", err)
			exit = 1
		} else {
			fmt.Printf("artifact      %s\n", traceOut)
		}
	}

	if diff {
		proc, err := wire.RunInProcess(spec, 1<<16)
		if err != nil {
			log.Printf("in-process twin: %v", err)
			return 1
		}
		if derr := wire.Diff(dist, proc); derr != nil {
			log.Printf("DIVERGENCE: %v", derr)
			return 2
		}
		fmt.Println("equivalence   distributed == in-process (results, traces, events, metrics)")
	}

	if requireRes {
		// A SIGKILLed process's own redial counter dies with it; the
		// coordinator-side reconnect and replay counters are the rejoin
		// proof.
		for _, name := range []string{"wire_retries_total", "wire_deadline_hits_total", "wire_reconnects_total", "wire_replayed_rounds_total"} {
			if counterValue(counters, name) == 0 {
				log.Printf("resilience not exercised: %s = 0", name)
				return 2
			}
		}
		if spec.Fault.Drop+spec.Fault.Corrupt+spec.Fault.Dup > 0 {
			injected := counterValue(counters, "wire_fault_drops_total") +
				counterValue(counters, "wire_fault_corrupts_total") +
				counterValue(counters, "wire_fault_dups_total")
			if injected == 0 {
				log.Print("resilience not exercised: delivery-fault rates set but no wire faults injected")
				return 2
			}
		}
		fmt.Println("resilience    retries, reconnects, and rejoins all exercised")
	}
	return exit
}

func counterValue(points []obs.MetricPoint, name string) int64 {
	for _, p := range points {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

// artifact is the JSON shape -trace-out writes (uploaded by CI).
type artifact struct {
	Spec      wire.RunSpec       `json:"spec"`
	Error     string             `json:"error,omitempty"`
	Result    *dynet.Result      `json:"result,omitempty"`
	Trace     []dynet.RoundStats `json:"trace,omitempty"`
	Metrics   []obs.MetricPoint  `json:"metrics,omitempty"`
	Transport []obs.MetricPoint  `json:"transport,omitempty"`
}

func writeArtifact(path string, spec wire.RunSpec, dist *wire.RunArtifacts, transport []obs.MetricPoint) error {
	a := artifact{Spec: spec, Result: dist.Res, Metrics: dist.Metrics, Transport: transport}
	if dist.Err != nil {
		a.Error = dist.Err.Error()
	}
	if dist.Trace != nil {
		a.Trace = dist.Trace.Stats
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

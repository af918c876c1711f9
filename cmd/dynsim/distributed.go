package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dyndiam/internal/obs"
	"dyndiam/internal/wire"
)

// runDistributedCLI routes a dynsim invocation through the distributed
// execution layer: a real coordinator plus n node sessions over loopback
// TCP, instead of the in-process engine. The per-round results are
// byte-identical to Engine.Run by the internal/wire equivalence
// guarantee; this entry point exists so the familiar dynsim flag set can
// exercise the wire path (cmd/dynnode adds OS-process nodes, fault
// injection at the socket, and the SIGKILL rejoin demo).
func runDistributedCLI(proto string, n int, advName string, advD int, seed uint64, rounds int, extra map[string]int64) (bool, error) {
	spec := wire.RunSpec{
		Proto: proto, N: n, Seed: seed, MaxRounds: rounds,
		CheckConnectivity: true, Adv: advName, AdvD: advD, Extra: extra,
	}
	if err := spec.Validate(); err != nil {
		return false, fmt.Errorf("-distributed: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return false, err
	}
	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			_ = wire.RunNode(wire.NodeConfig{ID: v, Addr: ln.Addr().String()}) // node errors mirror the coordinator's abort, reported below
		}(v)
	}
	tr, ring, reg := wire.NewArtifacts(1 << 16)
	transport := obs.NewRegistry()
	res, runErr := wire.Run(wire.Config{
		Spec: spec, Listener: ln,
		Trace: tr, Obs: ring, Metrics: reg, Transport: transport,
		RoundTimeout: 2 * time.Second,
	})
	wg.Wait()
	if runErr != nil {
		return false, runErr
	}

	printResult(fmt.Sprintf("%s (distributed over %s)", proto, ln.Addr()), advName, n, res)
	for _, p := range transport.Snapshot() {
		if p.Value != 0 {
			fmt.Printf("%-13s %d\n", p.Name, p.Value)
		}
	}
	return res.Done, nil
}

package advsearch

import (
	"encoding/json"
	"testing"

	"dyndiam/internal/harness"
)

// FuzzAdvSearchDeterminism is the package's determinism oath under
// arbitrary configurations: the same seed and budget produce the
// byte-identical best schedule and hardness table, run twice and at
// different Sweep.Workers settings. It sits alongside the dynet/faults
// fuzz targets in make fuzz and the CI fuzz smoke.
func FuzzAdvSearchDeterminism(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(10), uint8(2), uint8(3), uint8(0), uint8(1))
	f.Add(uint64(42), uint8(6), uint8(6), uint8(1), uint8(2), uint8(1), uint8(2))
	f.Add(uint64(7), uint8(9), uint8(12), uint8(2), uint8(2), uint8(3), uint8(0))
	f.Add(uint64(99), uint8(5), uint8(1), uint8(0), uint8(4), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, horizon, restarts, steps, protoSel, modeSel uint8) {
		cfg := Config{
			Proto:      Protocols()[int(protoSel)%len(Protocols())],
			N:          4 + int(n)%8,
			Restarts:   int(restarts) % 3,
			Steps:      1 + int(steps)%3,
			Seed:       seed,
			EvalBudget: 50_000,
		}
		cfg.Horizon = 1 + int(horizon)%(2*cfg.N)
		switch modeSel % 3 {
		case 0:
			cfg.Mode = ModeRandom
		case 1:
			cfg.Mode = ModeGreedy
		default:
			cfg.Mode = ModeEvolve
			cfg.Pop = 3
			cfg.Restarts = 0
		}

		run := func(workers int) (string, string) {
			rep, err := Search(cfg, nil, Options{Sweep: harness.Sweep{Workers: workers}})
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			best, err := json.Marshal(rep.Best)
			if err != nil {
				t.Fatal(err)
			}
			return string(best), FormatHardnessTable([]HardnessRow{RowFromReport(rep)}).String()
		}
		best1, table1 := run(1)
		best2, table2 := run(1)
		best4, table4 := run(4)
		if best1 != best2 || best1 != best4 {
			t.Fatalf("best schedule not deterministic:\n%s\n%s\n%s", best1, best2, best4)
		}
		if table1 != table2 || table1 != table4 {
			t.Fatalf("hardness table not deterministic:\n%s\n%s\n%s", table1, table2, table4)
		}
	})
}

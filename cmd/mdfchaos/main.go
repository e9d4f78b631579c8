// Command mdfchaos runs the deterministic chaos harness: seeded random
// trials (cluster config + MDF workload + fault plan), each executed twice —
// fault-free golden and faulted — with invariant oracles comparing the two.
// On a violation the fault plan is delta-debugged down to a minimal repro
// and written as a self-contained JSON file replayable with -replay here or
// with `mdfrun -faults`.
//
// With -crash the harness switches to the crash-restart oracle: each trial
// runs a batch of jobs on a durable mdfserve instance, then kills and
// restarts the service at every journal record boundary (with seeded torn
// tails, journal bit flips and checkpoint corruption) and asserts the
// recovered outcomes match the uninterrupted run exactly.
//
// Usage:
//
//	mdfchaos -trials 50 -seed 1
//	mdfchaos -trials 200 -seed 7 -oracle accounting,lineage
//	mdfchaos -replay chaos-repro.json
//	mdfchaos -crash -trials 50 -seed 1 -state-root /tmp/mdfcrash
//	mdfchaos -trials 50 -seed 1 -cpuprofile cpu.out -memprofile mem.out
//
// Exit codes: 0 all trials passed, 1 violations found, 2 bad usage,
// 3 a replayed repro still violates its oracle.
package main

import (
	"flag"
	"fmt"
	"os"

	"metadataflow/cmd/internal/prof"
	"metadataflow/internal/chaos"
)

func main() {
	var (
		trials    = flag.Int("trials", 50, "number of generated trials to run")
		seed      = flag.Int64("seed", 1, "sweep seed; same seed and trials reproduce the sweep bit for bit")
		oracle    = flag.String("oracle", "", "comma-separated oracle filter (default all): "+joinOracles())
		replay    = flag.String("replay", "", "replay a chaos-repro.json file instead of sweeping")
		reproOut  = flag.String("repro", "chaos-repro.json", "where to write the shrunk repro of the first violation")
		crash     = flag.Bool("crash", false, "run the crash-restart oracle against a durable service instead of the engine sweep")
		stateRoot = flag.String("state-root", "", "crash mode: directory for per-trial service state (default a temp dir, removed on success)")
		pf        = prof.Register()
	)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdfchaos: %v\n", err)
		os.Exit(2)
	}
	var code int
	if *crash {
		code = runCrash(*trials, *seed, *stateRoot)
	} else {
		code = run(*trials, *seed, *oracle, *replay, *reproOut)
	}
	stopProf()
	os.Exit(code)
}

// runCrash executes the crash-restart sweep. State directories land under
// stateRoot (kept for inspection when the caller names one, removed
// otherwise), and the per-trial log lines are deterministic for a given
// seed and trial count.
func runCrash(trials int, seed int64, stateRoot string) int {
	if trials < 1 {
		fmt.Fprintf(os.Stderr, "mdfchaos: -trials must be positive, got %d\n", trials)
		return 2
	}
	keep := stateRoot != ""
	if !keep {
		dir, err := os.MkdirTemp("", "mdfcrash-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		stateRoot = dir
	}
	res, err := chaos.CrashSweep(seed, trials, stateRoot, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("crash sweep: %d trials, %d restart boundaries, %d violations (seed %d)\n",
		res.Trials, res.Boundaries, res.Violations, seed)
	if res.Violations > 0 {
		fmt.Printf("state kept under %s\n", stateRoot)
		return 1
	}
	if !keep {
		os.RemoveAll(stateRoot)
	}
	return 0
}

func joinOracles() string {
	s := ""
	for i, name := range chaos.AllOracles {
		if i > 0 {
			s += ", "
		}
		s += name
	}
	return s
}

func run(trials int, seed int64, oracle, replay, reproOut string) int {
	if err := chaos.ValidateFilter(oracle); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if replay != "" {
		return runReplay(replay, oracle)
	}
	if trials < 1 {
		fmt.Fprintf(os.Stderr, "mdfchaos: -trials must be positive, got %d\n", trials)
		return 2
	}
	res, err := chaos.Sweep(seed, trials, oracle, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("sweep: %d trials, %d violations (seed %d)\n", res.Trials, res.Violations, seed)
	if res.Repro != nil {
		f, err := os.Create(reproOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.Repro.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote shrunk repro (%d fault events, oracle %s) to %s\n",
			res.Repro.Trial.Faults.NumEvents(), res.Repro.Oracle, reproOut)
	}
	if res.Violations > 0 {
		return 1
	}
	return 0
}

func runReplay(path, oracle string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	r, err := chaos.ParseRepro(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if oracle != "" {
		r.Oracle = oracle
	}
	vs, err := chaos.Replay(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(vs) == 0 {
		fmt.Printf("replay: %s no longer violates oracle %s (seed %d, %d workers, %d fault events)\n",
			path, r.Oracle, r.Trial.Seed, r.Trial.Workers, r.Trial.Faults.NumEvents())
		return 0
	}
	for _, v := range vs {
		fmt.Printf("oracle %s violated: %s\n", v.Oracle, v.Detail)
	}
	fmt.Printf("replay: %s reproduces: oracle %s violated %d time(s)\n", path, vs[0].Oracle, len(vs))
	return 3
}

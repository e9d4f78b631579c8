// Command mdfrun executes one of the paper's workload MDFs on the simulated
// cluster with configurable scheduling and memory-management policies and
// reports the run metrics, making the ablations of §6 reproducible from the
// command line.
//
// Usage:
//
//	mdfrun -job timeseries -scheduler bas -policy amm -incremental
//	mdfrun -job synthetic -scheduler bfs -policy lru -workers 12 -mem 4
//	mdfrun -spec examples/specs/outlier.json
//	mdfrun -job kde -trace-json trace.json -metrics metrics.json -explain
//	mdfrun -job timeseries -cpuprofile cpu.out -memprofile mem.out  # host-time profiles
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"metadataflow/cmd/internal/prof"
	"metadataflow/internal/baseline"
	"metadataflow/internal/chaos"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/plan"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
	"metadataflow/internal/workload/dnn"
	"metadataflow/internal/workload/kde"
	"metadataflow/internal/workload/synthetic"
	"metadataflow/internal/workload/timeseries"
)

func main() {
	var (
		job         = flag.String("job", "synthetic", "workload: kde, kde-scoped, kde-example, dnn, dnn-early, dnn-iterative, timeseries, synthetic")
		specPath    = flag.String("spec", "", "path to a JSON MDF spec (overrides -job)")
		sched       = flag.String("scheduler", "bas", "stage scheduler: bas, bas-sorted, bas-random, bfs")
		policy      = flag.String("policy", "amm", "eviction policy: amm, lru")
		incremental = flag.Bool("incremental", true, "incremental choose evaluation")
		workers     = flag.Int("workers", 8, "worker nodes")
		memGB       = flag.Int64("mem", 10, "memory per worker in GB")
		mode        = flag.String("mode", "mdf", "execution mode: mdf, sequential, or parallel:<k>")
		seed        = flag.Int64("seed", 1, "workload seed")
		trace       = flag.Bool("trace", false, "print the per-stage execution timeline")
		traceJSON   = flag.String("trace-json", "", "write a multi-track Chrome trace (per-node tracks and counters) to this file")
		metricsOut  = flag.String("metrics", "", "write the telemetry metrics snapshot as JSON to this file; mdf mode only")
		seriesOut   = flag.String("series", "", "write the virtual-time series document (mdf.series/v1) as JSON to this file; mdf mode only")
		explain     = flag.Bool("explain", false, "print the decision audit log (scheduler picks, evictions, choose selections, recovery); mdf mode only")
		spills      = flag.Bool("spills", false, "print the top spilled datasets")
		speculative = flag.Bool("speculative", false, "enable speculative straggler mitigation")
		faultSpec   = flag.String("faults", "", "fault plan: inline JSON (starts with '{') or a path to a JSON file; mdf mode only")
		vetPlan     = flag.Bool("vet", false, "statically verify the -spec plan (internal/plan battery) against this run's cluster shape before executing; findings abort the run")
		pf          = prof.Register()
	)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdfrun: %v\n", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the run at its next scheduling boundary; the
	// partial artifacts (-trace-json, -metrics) are still flushed and the
	// process exits with the conventional interrupt status 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = run(ctx, *job, *specPath, *sched, *policy, *incremental, *workers, *memGB, *mode, *seed, *trace, *traceJSON, *metricsOut, *seriesOut, *explain, *spills, *speculative, *faultSpec, *vetPlan)
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "run 'mdfrun -h' for the accepted flag values")
			os.Exit(2)
		}
		if errors.Is(err, errOracle) {
			os.Exit(3)
		}
		if errors.Is(err, errInterrupted) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// errUsage marks errors caused by a bad flag value rather than a failed
// run; main exits 2 and points at -h for these.
var errUsage = errors.New("invalid usage")

// errOracle marks a replayed chaos repro whose oracle still fires; main
// exits 3 so scripts can tell "violation reproduced" from ordinary failures.
var errOracle = errors.New("oracle violation")

// errInterrupted marks a run canceled by SIGINT/SIGTERM; main exits 130
// (the conventional status for death-by-interrupt) after the partial
// artifacts have been flushed.
var errInterrupted = errors.New("interrupted")

func usageErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errUsage}, args...)...)
}

// loadFaults decodes the -faults argument: inline JSON when it starts with
// '{', otherwise a file path. Both bare fault plans and chaos repro files
// (mdf.chaos-repro/v1) are accepted; a repro comes back as the second
// return and replaces the normal run with an oracle replay.
func loadFaults(arg string) (*faults.Plan, *chaos.Repro, error) {
	if arg == "" {
		return nil, nil, nil
	}
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		var err error
		data, err = os.ReadFile(arg)
		if err != nil {
			return nil, nil, err
		}
	}
	if chaos.IsRepro(data) {
		r, err := chaos.ParseRepro(data)
		return nil, r, err
	}
	p, err := faults.Parse(data)
	return p, nil, err
}

// replayRepro re-runs a chaos repro's trial (its own cluster, workload, and
// fault plan — the -job/-workers/-mem flags do not apply) and re-applies the
// violated oracle. It returns errOracle when the violation still reproduces.
func replayRepro(r *chaos.Repro) error {
	vs, err := chaos.Replay(r)
	if err != nil {
		return err
	}
	if len(vs) == 0 {
		fmt.Printf("chaos repro replay: oracle %s no longer violated (seed %d, %d workers, %d fault events)\n",
			r.Oracle, r.Trial.Seed, r.Trial.Workers, r.Trial.Faults.NumEvents())
		return nil
	}
	for _, v := range vs {
		fmt.Printf("oracle %s violated: %s\n", v.Oracle, v.Detail)
	}
	return fmt.Errorf("%w: chaos repro reproduces: oracle %s, %d violation(s)", errOracle, vs[0].Oracle, len(vs))
}

func run(ctx context.Context, job, specPath, sched, policy string, incremental bool, workers int, memGB int64, mode string, seed int64, trace bool, traceJSON, metricsOut, seriesOut string, explain, spills, speculative bool, faultSpec string, vetPlan bool) error {
	if vetPlan && specPath == "" {
		return usageErrorf("mdfrun: -vet requires -spec (the built-in -job workloads have no spec document to verify)")
	}
	var g *graph.Graph
	var err error
	if specPath != "" {
		data, rerr := os.ReadFile(specPath)
		if rerr != nil {
			return rerr
		}
		s, perr := spec.Parse(data)
		if perr != nil {
			return perr
		}
		if vetPlan {
			// Verify against the cluster this run would actually use, so a
			// memfeasible finding here is a proof the run below cannot fit.
			cfg := plan.DefaultConfig()
			cfg.Workers = workers
			cfg.MemPerWorker = sim.Bytes(memGB) << 30
			res, verr := plan.Verify(s, cfg)
			if verr != nil {
				return verr
			}
			if len(res.Findings) > 0 {
				for _, f := range res.Findings {
					fmt.Fprintf(os.Stderr, "%s: %s\n", specPath, f)
				}
				return fmt.Errorf("mdfrun: plan vetting failed: %d finding(s)", len(res.Findings))
			}
		}
		g, err = s.Compile()
	} else {
		g, err = buildJob(job, seed)
	}
	if err != nil {
		return err
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Workers = workers
	ccfg.MemPerWorker = sim.Bytes(memGB) << 30
	cl, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	var pol memorymgr.PolicyKind
	switch policy {
	case "amm":
		pol = memorymgr.AMM
	case "lru":
		pol = memorymgr.LRU
	default:
		return usageErrorf("mdfrun: unknown policy %q (want amm or lru)", policy)
	}
	switch sched {
	case "bas", "bas-sorted", "bas-random", "bfs":
	default:
		return usageErrorf("mdfrun: unknown scheduler %q (want bas, bas-sorted, bas-random, or bfs)", sched)
	}
	newSched := func() scheduler.Policy {
		switch sched {
		case "bfs":
			return scheduler.BFS()
		case "bas-sorted":
			return scheduler.BAS(scheduler.SortedHint(false))
		case "bas-random":
			return scheduler.BAS(scheduler.RandomHint(seed))
		default:
			return scheduler.BAS(nil)
		}
	}

	fplan, repro, err := loadFaults(faultSpec)
	if err != nil {
		return usageErrorf("mdfrun: bad -faults value: %v (want inline JSON starting with '{' or a path to a JSON fault plan or chaos repro)", err)
	}
	if (fplan != nil || repro != nil) && mode != "mdf" {
		return usageErrorf("mdfrun: -faults is only supported in mdf mode")
	}
	if repro != nil {
		return replayRepro(repro)
	}
	telemetry := traceJSON != "" || metricsOut != "" || seriesOut != "" || explain
	if telemetry && mode != "mdf" {
		return usageErrorf("mdfrun: -trace-json, -metrics, -series, and -explain are only supported in mdf mode")
	}

	switch {
	case mode == "mdf":
		execPlan, err := graph.BuildPlan(g)
		if err != nil {
			return err
		}
		var rec *obs.Recorder
		opts := engine.Options{
			Cluster: cl, Policy: pol, Scheduler: newSched(),
			Incremental: incremental, Trace: trace,
			Speculative: speculative, Faults: fplan,
			Context: ctx,
		}
		if telemetry {
			rec = obs.NewRecorder()
			opts.Probe = rec
		}
		runr, err := engine.NewRun(execPlan, opts, 0)
		if err != nil {
			return err
		}
		res, err := runr.RunToCompletion()
		interrupted := err != nil && errors.Is(err, context.Canceled)
		if err != nil && !interrupted {
			return err
		}
		if interrupted {
			// The partial result and telemetry stay readable; flush every
			// requested artifact before exiting 130.
			fmt.Fprintln(os.Stderr, "mdfrun: interrupted, flushing partial artifacts")
			res = runr.Result()
		}
		report(res.CompletionTime().Seconds(), &res.Metrics, 1)
		if fplan != nil {
			reportFaults(res)
		}
		if spills {
			entries := runr.SpillReport(10)
			if len(entries) == 0 {
				fmt.Println("\nno datasets were spilled")
			} else {
				fmt.Println("\ntop spilled datasets:")
				for _, e := range entries {
					fmt.Printf("  %s\n", e)
				}
			}
		}
		if trace {
			fmt.Println("\ntimeline (virtual seconds):")
			if err := engine.WriteText(os.Stdout, res.Timeline); err != nil {
				return err
			}
			fmt.Println(engine.SummarizeTimeline(res.Timeline))
		}
		if traceJSON != "" {
			f, err := os.Create(traceJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := rec.WriteChromeTrace(f); err != nil {
				return err
			}
			fmt.Printf("wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n", traceJSON)
		}
		if metricsOut != "" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := runr.Snapshot().WriteJSON(f); err != nil {
				return err
			}
			fmt.Printf("wrote metrics snapshot to %s\n", metricsOut)
		}
		if seriesOut != "" {
			f, err := os.Create(seriesOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := rec.Series(obs.DefaultBucketSec).WriteJSON(f); err != nil {
				return err
			}
			fmt.Printf("wrote time-series document to %s\n", seriesOut)
		}
		if explain {
			fmt.Println("\ndecision audit log:")
			if err := rec.WriteDecisions(os.Stdout); err != nil {
				return err
			}
		}
		if interrupted {
			return errInterrupted
		}
	case mode == "sequential":
		jobs, err := baseline.ExpandJobs(g)
		if err != nil {
			return err
		}
		res, err := baseline.Sequential(jobs, baseline.Config{Cluster: cl, Policy: pol, Context: ctx})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return fmt.Errorf("%w: %v", errInterrupted, err)
			}
			return err
		}
		report(res.CompletionTime.Seconds(), &res.Metrics, len(res.Jobs))
	default:
		var k int
		if _, err := fmt.Sscanf(mode, "parallel:%d", &k); err != nil || k < 1 {
			return usageErrorf("mdfrun: unknown mode %q (want mdf, sequential, or parallel:<k>)", mode)
		}
		jobs, err := baseline.ExpandJobs(g)
		if err != nil {
			return err
		}
		res, err := baseline.Parallel(jobs, k, baseline.Config{Cluster: cl, Policy: pol, Context: ctx})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return fmt.Errorf("%w: %v", errInterrupted, err)
			}
			return err
		}
		report(res.CompletionTime.Seconds(), &res.Metrics, len(res.Jobs))
	}
	return nil
}

func report(completion float64, m *engine.Metrics, jobs int) {
	fmt.Printf("completion time     %10.2f virtual seconds\n", completion)
	fmt.Printf("jobs executed       %10d\n", jobs)
	fmt.Printf("stages executed     %10d\n", m.StagesExecuted)
	fmt.Printf("stages pruned       %10d\n", m.StagesPruned)
	fmt.Printf("branches pruned     %10d\n", m.BranchesPruned)
	fmt.Printf("branches discarded  %10d\n", m.BranchesDiscarded)
	fmt.Printf("datasets discarded  %10d\n", m.DatasetsDiscarded)
	fmt.Printf("peak live datasets  %10d\n", m.PeakLiveDatasets)
	fmt.Printf("choose evaluations  %10d\n", m.ChooseEvals)
	fmt.Printf("compute time        %10.2f virtual seconds\n", m.ComputeSec)
	fmt.Printf("memory hit ratio    %10.4f\n", m.Mem.HitRatio())
	fmt.Printf("bytes from memory   %10d\n", m.Mem.BytesFromMem)
	fmt.Printf("bytes from disk     %10d\n", m.Mem.BytesFromDisk)
	fmt.Printf("evictions           %10d\n", m.Mem.Evictions)
}

// reportFaults prints the resilience counters and any quarantined branches.
func reportFaults(res *engine.Result) {
	m := &res.Metrics
	fmt.Printf("\nfaults injected     %10d\n", m.FaultsInjected)
	fmt.Printf("node crashes        %10d\n", m.NodeCrashes)
	fmt.Printf("panics injected     %10d\n", m.PanicsInjected)
	fmt.Printf("operator retries    %10d\n", m.Retries)
	fmt.Printf("stages re-executed  %10d\n", m.StagesReExecuted)
	fmt.Printf("parts re-derived    %10d\n", m.PartitionsRederived)
	fmt.Printf("parts rebalanced    %10d\n", m.PartitionsRebalanced)
	fmt.Printf("branches quarantined%10d\n", m.BranchesQuarantined)
	fmt.Printf("recovery time       %10.2f virtual seconds\n", m.RecoverySec)
	fmt.Printf("checkpoints written %10d (%d bytes)\n", m.Mem.Checkpoints, m.Mem.CheckpointedBytes)
	for _, q := range res.Quarantined {
		fmt.Printf("quarantined         %s branch %d: %s\n", q.Choose, q.Branch, q.Reason)
	}
}

func buildJob(job string, seed int64) (*graph.Graph, error) {
	switch job {
	case "kde":
		p := kde.Defaults()
		p.Seed = seed
		return kde.BuildMDF(p)
	case "kde-scoped":
		p := kde.DefaultScoped()
		p.Seed = seed
		return kde.BuildScopedMDF(p)
	case "kde-example":
		p := kde.DefaultExample()
		p.Seed = seed
		return kde.BuildExampleMDF(p)
	case "dnn":
		p := dnn.Defaults()
		p.Seed = seed
		return dnn.BuildExhaustiveMDF(p)
	case "dnn-early":
		p := dnn.Defaults()
		p.Seed = seed
		return dnn.BuildEarlyChooseMDF(p)
	case "dnn-iterative":
		p := dnn.DefaultIterative()
		p.Seed = seed
		return dnn.BuildIterativeMDF(p)
	case "timeseries":
		p := timeseries.Defaults()
		p.Seed = seed
		return timeseries.BuildMDF(p)
	case "synthetic":
		p := synthetic.Defaults()
		p.Seed = seed
		return synthetic.BuildMDF(p)
	}
	return nil, usageErrorf("mdfrun: unknown job %q (want kde, kde-scoped, kde-example, dnn, dnn-early, dnn-iterative, timeseries, or synthetic)", job)
}

package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/cluster"
	"metadataflow/internal/dataset"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/journal"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/plan"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/service"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// This file is the traced replay of serve runs: every job of the stream
// runs again through the public functions the service composes when it
// starts a job (spec.Parse → plan.Verify → HashReport → Compile →
// graph.BuildPlan → cluster.New → engine.NewRun → Run.Step until done →
// Run.Snapshot), with a span around each call and timers wrapped around
// every operator function, evaluator and scheduler pick. A replay must
// reproduce the service's selections and virtual completion time exactly,
// or it measured a different execution and the traced run fails.

// timedPolicy wraps a scheduling policy with a pick timer. It forwards the
// optional interfaces the engine looks for, so the wrapped run schedules
// exactly as the unwrapped one.
type timedPolicy struct {
	scheduler.Policy
	picks int
	dur   time.Duration
}

func (p *timedPolicy) Pick(ready []*graph.Stage, last *graph.Stage) *graph.Stage {
	t := time.Now()
	st := p.Policy.Pick(ready, last)
	p.dur += time.Since(t)
	p.picks++
	return st
}

// ObserveScore implements scheduler.ScoreAware.
func (p *timedPolicy) ObserveScore(op *graph.Operator, hint, score float64) {
	if sa, ok := p.Policy.(scheduler.ScoreAware); ok {
		sa.ObserveScore(op, hint, score)
	}
}

// SetPickObserver implements scheduler.PickObservable.
func (p *timedPolicy) SetPickObserver(f func(scheduler.PickRecord)) {
	if po, ok := p.Policy.(scheduler.PickObservable); ok {
		po.SetPickObserver(f)
	}
}

// timedChooser times the evaluator. Sessions come straight from the
// wrapped chooser, so order-aware sessions keep their ordering.
type timedChooser struct {
	graph.Chooser
	dur *time.Duration
}

func (c timedChooser) Score(d *dataset.Dataset) float64 {
	t := time.Now()
	v := c.Chooser.Score(d)
	*c.dur += time.Since(t)
	return v
}

// replayCost is one replayed job's per-layer cost.
type replayCost struct {
	parse, verify, hash, compile, buildPlan, newRun time.Duration
	step, pick, compute, snapshot                   time.Duration
	steps, picks                                    int
	evictions, checkpoints, spilled                 int64
	selections                                      map[string][]int
	completion                                      sim.VTime
	snap                                            *obs.Snapshot
}

// replay runs one job. store is nil for a memory-only replay.
func replay(j job, store *ckptstore.Store, withFaults bool) (*replayCost, error) {
	c := &replayCost{}
	t := time.Now()
	sp, err := spec.Parse(j.Spec)
	c.parse = time.Since(t)
	if err != nil {
		return nil, err
	}
	cfg := serviceConfig()
	t = time.Now()
	res, err := plan.Verify(sp, plan.Config{Workers: cfg.Workers, MemPerWorker: cfg.MemPerWorker, TenantQuota: 2 * sim.Bytes(cfg.Workers) * cfg.MemPerWorker})
	c.verify = time.Since(t)
	if err != nil {
		return nil, err
	}
	if len(res.Findings) > 0 {
		return nil, fmt.Errorf("plan vetting: %v", res.Findings[0])
	}
	t = time.Now()
	hr := sp.HashReport()
	c.hash = time.Since(t)
	t = time.Now()
	g, err := sp.Compile()
	c.compile = time.Since(t)
	if err != nil {
		return nil, err
	}
	for _, op := range g.Ops() {
		if fn := op.Transform; fn != nil {
			op.Transform = func(ins []*dataset.Dataset) (*dataset.Dataset, error) {
				t := time.Now()
				out, err := fn(ins)
				c.compute += time.Since(t)
				return out, err
			}
		}
		if op.Chooser != nil {
			op.Chooser = timedChooser{Chooser: op.Chooser, dur: &c.compute}
		}
	}
	t = time.Now()
	pl, err := graph.BuildPlan(g)
	c.buildPlan = time.Since(t)
	if err != nil {
		return nil, err
	}
	var fp *faults.Plan
	if withFaults && len(j.Faults) > 0 {
		if fp, err = faults.Parse(j.Faults); err != nil {
			return nil, err
		}
	}
	pol := &timedPolicy{Policy: scheduler.BAS(nil)}
	opts := engine.Options{Policy: memorymgr.AMM, Faults: fp, Probe: obs.NewRecorder(), Scheduler: pol}
	if store != nil {
		opts.Checkpoint, opts.Ckpts, opts.CkptChains = true, store, hr.OpChains
	}
	t = time.Now()
	clCfg := cluster.DefaultConfig()
	clCfg.Workers, clCfg.MemPerWorker = cfg.Workers, cfg.MemPerWorker
	if opts.Cluster, err = cluster.New(clCfg); err != nil {
		return nil, err
	}
	run, err := engine.NewRun(pl, opts, 0)
	c.newRun = time.Since(t)
	if err != nil {
		return nil, err
	}
	for alive := true; alive; {
		t = time.Now()
		alive = run.Step()
		c.step += time.Since(t)
		c.steps++
	}
	if err := run.Err(); err != nil {
		return nil, err
	}
	t = time.Now()
	c.snap = run.Snapshot()
	c.snapshot = time.Since(t)
	c.pick, c.picks = pol.dur, pol.picks
	c.evictions, _ = c.snap.CounterValue("mem.evictions")
	c.checkpoints, _ = c.snap.CounterValue("mem.checkpoints")
	c.spilled, _ = c.snap.CounterValue("mem.spilled_bytes")
	c.selections = run.ChooseSelections()
	c.completion = run.Now()
	return c, nil
}

// replayAll replays every job of a traced serve run and fills the
// per-layer metrics with per-job medians. On serve-durable each job is
// replayed twice, with and without a checkpoint store, and its lifecycle
// records are appended to a scratch journal that is read back at the end.
func replayAll(a childArgs, jobs []job, outs []outcome, layers map[string]float64, res *childResult) error {
	durable := a.workload == "serve-durable"
	scratch := filepath.Join(a.rundir, "replay")
	defer removeAll(scratch)
	var store *ckptstore.Store
	var jnl *journal.Journal
	if durable {
		store = ckptstore.New(filepath.Join(scratch, "ckpt"))
		if err := store.Open(); err != nil {
			return err
		}
		defer store.Close()
		jnl = journal.New(filepath.Join(scratch, "journal"), journal.Options{})
		if err := jnl.Open(); err != nil {
			return err
		}
		defer jnl.Close()
	}
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for i, j := range jobs {
		st := outs[i].Status
		if outs[i].Err != nil || st.State != service.StateDone {
			continue
		}
		c, err := replay(j, store, true)
		if err != nil {
			return fmt.Errorf("replay of job %d: %w", i, err)
		}
		if !sameSelections(c.selections, st.Selections) || float64(c.completion) != st.CompletionSec {
			return fmt.Errorf("replay of job %d diverges from the service: %v at %gs, service %v at %gs",
				i, c.selections, float64(c.completion), st.Selections, st.CompletionSec)
		}
		if j.Fault != "" {
			twin, err := replay(j, store, false)
			if err != nil {
				return fmt.Errorf("fault-free twin of job %d: %w", i, err)
			}
			if !sameSelections(twin.selections, st.Selections) {
				res.wrong(fmt.Errorf("job %d (%s fault): selected %v, its fault-free twin %v", i, j.Fault, st.Selections, twin.selections))
			}
		}
		add("spec.parse_us", us(c.parse))
		add("plan.verify_us", us(c.verify))
		add("spec.hash_us", us(c.hash))
		add("spec.compile_us", us(c.compile))
		add("graph.plan_us", us(c.buildPlan))
		add("engine.newrun_us", us(c.newRun))
		add("engine.step_us", us(c.step))
		add("engine.steps", float64(c.steps))
		add("scheduler.pick_us", us(c.pick))
		add("scheduler.picks", float64(c.picks))
		add("operator.compute_us", us(c.compute))
		add("engine.self_us", us(c.step-c.pick-c.compute))
		add("obs.snapshot_us", us(c.snapshot))
		add("memorymgr.evictions", float64(c.evictions))
		add("memorymgr.checkpoints", float64(c.checkpoints))
		add("memorymgr.spilled_mb", float64(c.spilled)/(1<<20))
		if durable {
			mem, err := replay(j, nil, true)
			if err != nil {
				return fmt.Errorf("memory-only replay of job %d: %w", i, err)
			}
			add("ckptstore.step_overhead_us", us(c.step-mem.step))
			d, err := appendLifecycle(jnl, j, st, c)
			if err != nil {
				return err
			}
			add("journal.append_us", us(d))
		}
	}
	for k, v := range per {
		layers[k] = median(v)
	}
	if durable {
		files, bytes := dirUsage(filepath.Join(scratch, "ckpt"))
		n := float64(len(per["engine.steps"]))
		layers["ckptstore.files"] = float64(files) / n
		layers["ckptstore.mb"] = float64(bytes) / (1 << 20) / n
		if err := jnl.Close(); err != nil {
			return err
		}
		_, jbytes := dirUsage(filepath.Join(scratch, "journal"))
		recs, err := journal.Replay(filepath.Join(scratch, "journal"))
		if err != nil {
			return err
		}
		layers["journal.records"] = float64(len(recs)) / n
		layers["journal.kb"] = float64(jbytes) / 1024 / n
	}
	return nil
}

// appendLifecycle journals a replayed job's admitted, started and terminal
// records, as the service does, and returns the time it took to encode the
// terminal snapshot and append the records.
func appendLifecycle(jnl *journal.Journal, j job, st service.JobStatus, c *replayCost) (time.Duration, error) {
	t := time.Now()
	snap, err := json.Marshal(c.snap)
	if err != nil {
		return 0, err
	}
	recs := []journal.Record{
		{Kind: journal.KindAdmitted, Job: st.ID, Tenant: st.Tenant, Spec: j.Spec, Faults: j.Faults},
		{Kind: journal.KindStarted, Job: st.ID, Tenant: st.Tenant, Attempt: 1},
		{Kind: journal.KindTerminal, Job: st.ID, Tenant: st.Tenant, State: st.State,
			TSec: c.completion, CompletionSec: c.completion, Selections: c.selections, Snapshot: snap},
	}
	for _, r := range recs {
		if _, err := jnl.Append(r); err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

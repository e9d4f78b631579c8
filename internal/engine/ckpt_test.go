package engine_test

import (
	"os"
	"path/filepath"
	"testing"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/spec"
)

// ckptSpec exercises the durable-store wiring end to end: a trunk op, an
// explore, and enough partitions that anticipatory checkpoints land on
// several nodes.
const ckptSpec = `{
  "name": "ckpt",
  "source": {"rows": 120, "partitions": 4, "virtualBytes": 4194304, "distribution": "normal", "seed": 3},
  "pipeline": [
    {"op": {"name": "std", "fn": "standardize"}},
    {"explore": {
      "name": "e",
      "branches": [
        {"label": "lo", "params": {"limit": 0.5}},
        {"label": "hi", "params": {"limit": 1.5}}
      ],
      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max"}}
    }}
  ]
}`

// compileCkptSpec parses the spec and returns its plan plus chain index.
func compileCkptSpec(t *testing.T) (*graph.Plan, []spec.Hash) {
	t.Helper()
	s, err := spec.Parse([]byte(ckptSpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := s.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	plan, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return plan, s.HashReport().OpChains
}

func runWithStore(t *testing.T, store *ckptstore.Store, fp *faults.Plan) *engine.Result {
	t.Helper()
	plan, chains := compileCkptSpec(t)
	run, err := engine.NewRun(plan, engine.Options{
		Cluster: testCluster(1 << 30), Policy: memorymgr.AMM,
		Scheduler: scheduler.BAS(nil), Incremental: true,
		Checkpoint: true, Faults: fp,
		Ckpts: store, CkptChains: chains,
	}, 0)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	res, err := run.RunToCompletion()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func openTestStore(t *testing.T) *ckptstore.Store {
	t.Helper()
	store, _ := openTestStoreAt(t)
	return store
}

// openTestStoreAt opens a store in a fresh directory and also returns the
// path of its log file.
func openTestStoreAt(t *testing.T) (*ckptstore.Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ckpt")
	store := ckptstore.New(dir)
	if err := store.Open(); err != nil {
		t.Fatalf("store open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	return store, filepath.Join(dir, "log")
}

// logSize returns the size of the log file in records.
func logSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size()%ckptstore.RecordLen != 0 {
		t.Fatalf("log of %d bytes is not whole %d-byte records", info.Size(), ckptstore.RecordLen)
	}
	return info.Size() / ckptstore.RecordLen
}

// TestMirrorWritesContentAddressedEntries checks that every anticipatory
// checkpoint appends one record to the log under a spec chain key, and
// that two runs of the same spec append records for exactly the same key
// set (content addressing).
func TestMirrorWritesContentAddressedEntries(t *testing.T) {
	store, path := openTestStoreAt(t)
	res := runWithStore(t, store, &faults.Plan{})
	recs := logSize(t, path)
	if recs == 0 || recs != res.Metrics.Mem.Checkpoints {
		t.Fatalf("%d records for %d checkpoints", recs, res.Metrics.Mem.Checkpoints)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	// A second run of the same spec must re-key the exact same entries.
	runWithStore(t, store, &faults.Plan{})
	again, err := store.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(again) != len(keys) {
		t.Fatalf("entry set changed across identical runs: %d then %d", len(keys), len(again))
	}
	if n := logSize(t, path); n != 2*recs {
		t.Fatalf("second run appended %d records, first %d", n-recs, recs)
	}
}

// TestIntactLogVerifiesEveryCopy checks that the run's own records verify:
// with an undamaged log, crash recovery trusts exactly the durable copies
// a run without a store trusts.
func TestIntactLogVerifiesEveryCopy(t *testing.T) {
	for _, crash := range []faults.Crash{{Node: 0, AfterStages: 2}, {Node: 1, AfterStages: 2, Permanent: true}} {
		plan := &faults.Plan{Crashes: []faults.Crash{crash}}
		bare := runWithStore(t, nil, plan)
		logged := runWithStore(t, openTestStore(t), plan)
		if bare.Metrics.PartitionsRederived != logged.Metrics.PartitionsRederived ||
			bare.Metrics.PartitionsRebalanced != logged.Metrics.PartitionsRebalanced {
			t.Fatalf("crash %+v: with a log %d re-derived, %d rebalanced; without %d, %d", crash,
				logged.Metrics.PartitionsRederived, logged.Metrics.PartitionsRebalanced,
				bare.Metrics.PartitionsRederived, bare.Metrics.PartitionsRebalanced)
		}
	}
}

// TestCorruptCheckpointRederivesNotFails is the acceptance-criterion
// core: bit-flipped checkpoint entries loaded during crash recovery are
// treated as misses and re-derived by lineage — the run still succeeds
// with the same output as a clean faulted run.
func TestCorruptCheckpointRederivesNotFails(t *testing.T) {
	crash := []faults.Crash{{Node: 0, AfterStages: 2}}
	clean := runWithStore(t, openTestStore(t), &faults.Plan{Crashes: crash})

	store := openTestStore(t)
	flips := []faults.CkptFlip{{Load: 0, Bit: 9}, {Load: 1, Bit: 100}}
	res := runWithStore(t, store, &faults.Plan{Crashes: crash, CkptFlips: flips})
	if res.Output == nil || clean.Output == nil {
		t.Fatal("missing outputs")
	}
	if got, want := res.Output.NumRows(), clean.Output.NumRows(); got != want {
		t.Fatalf("corrupt-checkpoint run output %d rows, clean faulted run %d", got, want)
	}
	if res.Metrics.PartitionsRederived <= clean.Metrics.PartitionsRederived {
		t.Fatalf("corruption did not add re-derivation: %d vs %d partitions",
			res.Metrics.PartitionsRederived, clean.Metrics.PartitionsRederived)
	}
	if res.Metrics.FaultsInjected <= clean.Metrics.FaultsInjected {
		t.Fatalf("ckpt flips not recorded as fault events: %d vs %d",
			res.Metrics.FaultsInjected, clean.Metrics.FaultsInjected)
	}
}

// TestPermanentCrashVerifiesEvacuatedCopies drives the permanent-loss
// path: corrupt entries of a dead node's checkpointed partitions must be
// re-derived instead of rebalanced.
func TestPermanentCrashVerifiesEvacuatedCopies(t *testing.T) {
	crash := []faults.Crash{{Node: 1, AfterStages: 2, Permanent: true}}
	clean := runWithStore(t, openTestStore(t), &faults.Plan{Crashes: crash})
	store := openTestStore(t)
	res := runWithStore(t, store, &faults.Plan{
		Crashes:   crash,
		CkptFlips: []faults.CkptFlip{{Load: 0, Bit: 3}},
	})
	if got, want := res.Output.NumRows(), clean.Output.NumRows(); got != want {
		t.Fatalf("output %d rows, want %d", got, want)
	}
	moved := res.Metrics.PartitionsRederived + res.Metrics.PartitionsRebalanced
	if moved == 0 {
		t.Fatal("permanent crash moved no partitions")
	}
	if res.Metrics.PartitionsRebalanced >= clean.Metrics.PartitionsRebalanced {
		t.Fatalf("corrupt copy still rebalanced: %d vs clean %d",
			res.Metrics.PartitionsRebalanced, clean.Metrics.PartitionsRebalanced)
	}
}

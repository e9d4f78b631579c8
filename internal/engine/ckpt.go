package engine

import (
	"metadataflow/internal/ckptstore"
	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// This file mirrors the allocators' durable-copy bookkeeping into the
// checkpoint log (internal/ckptstore). The simulation models checkpoint
// I/O costs through the allocators; the log adds one fixed-size record per
// checkpoint on disk, keyed by the spec chain-prefix hash of the producing
// operator plus the partition index. The run keeps the offset of each
// record it wrote and reads back only those, so nothing outlives the run.
//
// Verification happens at crash recovery: before trusting a partition's
// durable copy, the engine reads and checks its record. A miss — never
// written, torn, or bit-flipped — demotes the copy and the partition is
// re-derived by lineage, which is the paper's recovery path for
// un-checkpointed state. Corruption therefore costs recovery time, never
// correctness.

// chainOf maps a stage's output to its spec chain hash: the chain of the
// stage's final operator. Reports false when no mapping was provided
// (runs built directly from graphs rather than specs).
func (r *Run) chainOf(st *graph.Stage) (spec.Hash, bool) {
	last := st.Last()
	if last == nil || last.ID < 0 || last.ID >= len(r.opts.CkptChains) {
		return 0, false
	}
	return r.opts.CkptChains[last.ID], true
}

// mirrorCheckpoint appends partition i of stage st's output dataset to the
// checkpoint log, if a store and a chain mapping exist, and remembers the
// record's offset. A failed append keeps the previous offset, if any: the
// durable copy then verifies against its older record or misses, which
// recovery already treats as re-derive.
func (r *Run) mirrorCheckpoint(st *graph.Stage, d *dataset.Dataset, i int) {
	if r.opts.Ckpts == nil {
		return
	}
	chain, ok := r.chainOf(st)
	if !ok {
		return
	}
	k := ckptstore.Key{Chain: chain, Part: i}
	p := d.Parts[i]
	off, err := r.opts.Ckpts.Put(ckptstore.Entry{Key: k, Rows: int64(len(p.Rows)), VirtualBytes: sim.Bytes(p.VirtualBytes)})
	if err != nil {
		return
	}
	if r.ckptOffsets == nil {
		r.ckptOffsets = make(map[ckptstore.Key]int64)
	}
	r.ckptOffsets[k] = off
}

// stageOfDataset finds the plan stage whose output is the dataset, in
// plan order. Forwarding stages share their producer's dataset and — by
// construction of the chain hashes — its chain, so any match keys the
// same store entry.
func (r *Run) stageOfDataset(id dataset.ID) *graph.Stage {
	if prod, ok := r.producerOf[id]; ok && prod >= 0 && prod < len(r.plan.Stages) {
		return r.plan.Stages[prod]
	}
	return nil
}

// storeKey maps a partition to its checkpoint-log key; false when its
// producing stage has no chain mapping.
func (r *Run) storeKey(key dataset.PartKey) (ckptstore.Key, bool) {
	st := r.stageOfDataset(key.Dataset)
	if st == nil {
		return ckptstore.Key{}, false
	}
	chain, ok := r.chainOf(st)
	return ckptstore.Key{Chain: chain, Part: key.Index}, ok
}

// loadCheckpoint fires the next checkpoint bit-flip fault (faults.CkptFlip,
// counted by load ordinal) on the run's record for sk, then reads the
// record back. A non-nil error is a miss.
func (r *Run) loadCheckpoint(sk ckptstore.Key) error {
	off, ok := r.ckptOffsets[sk]
	if !ok {
		off = -1
	}
	if r.injector != nil {
		if bit, flip := r.injector.NextCkptLoad(); flip {
			_ = r.opts.Ckpts.CorruptEntry(off, bit) //lint:allow droppederr -- injected corruption; a failed flip leaves a record that still verifies
		}
	}
	_, err := r.opts.Ckpts.Get(sk, off)
	return err
}

// decideMiss records a checkpoint miss in the decision log.
func (r *Run) decideMiss(sk ckptstore.Key, err error) {
	r.decide(obs.Decision{
		T: r.now, Node: obs.NodeMaster, Component: "faults", Kind: "ckptmiss",
		Subject: sk.String(), Detail: err.Error(),
	})
}

// distrustCorrupt verifies the checkpoint records backing the allocator's
// surviving durable copies after a crash of node. Copies whose records
// are missing or fail verification are demoted and returned as lost,
// joining the lineage re-derivation pass.
func (r *Run) distrustCorrupt(alloc *memorymgr.Allocator) []memorymgr.Lost {
	if r.opts.Ckpts == nil {
		return nil
	}
	var lost []memorymgr.Lost
	for _, key := range alloc.Keys() {
		if !alloc.Checkpointed(key) {
			continue
		}
		sk, ok := r.storeKey(key)
		if !ok {
			continue
		}
		if err := r.loadCheckpoint(sk); err != nil {
			if l, ok := alloc.DropDurable(key); ok {
				lost = append(lost, l)
				r.decideMiss(sk, err)
			}
		}
	}
	return lost
}

// verifyEvacuated splits a permanently dead node's checkpointed
// partitions into those whose records verify (rebalanced onto survivors)
// and those that do not (re-derived by lineage). Without a store every
// copy is trusted, as before.
func (r *Run) verifyEvacuated(checkpointed []memorymgr.Lost) (ok, corrupt []memorymgr.Lost) {
	if r.opts.Ckpts == nil {
		return checkpointed, nil
	}
	for _, l := range checkpointed {
		sk, mapped := r.storeKey(l.Key)
		if !mapped {
			ok = append(ok, l)
			continue
		}
		if err := r.loadCheckpoint(sk); err != nil {
			corrupt = append(corrupt, l)
			r.decideMiss(sk, err)
			continue
		}
		ok = append(ok, l)
	}
	return ok, corrupt
}

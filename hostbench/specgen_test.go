package main

import (
	"testing"

	"metadataflow/internal/plan"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// TestStreamPassesVet checks that every generated spec — stream, warm-up
// and history jobs over several seeds — is admitted by plan vetting under
// the serve configuration, so no workload operation is a vet rejection.
func TestStreamPassesVet(t *testing.T) {
	cfg := serviceConfig()
	vet := plan.Config{Workers: cfg.Workers, MemPerWorker: cfg.MemPerWorker, TenantQuota: 2 * sim.Bytes(cfg.Workers) * cfg.MemPerWorker}
	seeds, perSeed := []int64{1, 2, 3, 4, 5, 6, 7, 8}, 12*roundLen
	if testing.Short() {
		seeds, perSeed = seeds[:3], 3*roundLen
	}
	for _, seed := range seeds {
		st := stream{seed: seed}
		for i := 0; i < perSeed; i++ {
			for _, gen := range []func(int) (job, error){st.job, st.warmupJob, st.historyJob} {
				j, err := gen(i)
				if err != nil {
					t.Fatalf("seed %d job %d: %v", seed, i, err)
				}
				sp, err := spec.Parse(j.Spec)
				if err != nil {
					t.Fatalf("seed %d job %d (%s): parse: %v", seed, i, j.Shape, err)
				}
				res, err := plan.Verify(sp, vet)
				if err != nil {
					t.Fatalf("seed %d job %d (%s): verify: %v", seed, i, j.Shape, err)
				}
				if len(res.Findings) > 0 {
					t.Errorf("seed %d job %d (%s): vet finding %v\n%s", seed, i, j.Shape, res.Findings[0], j.Spec)
				}
			}
		}
	}
}

// TestStreamRounds checks the stratification: every round of ten jobs uses
// each shape once, each row class twice, and carries exactly one crash and
// one panic fault; and job i is the same on every call.
func TestStreamRounds(t *testing.T) {
	st := stream{seed: 42}
	for r := 0; r < 3; r++ {
		shapesSeen, faults := map[string]int{}, map[string]int{}
		for i := r * roundLen; i < (r+1)*roundLen; i++ {
			j, err := st.job(i)
			if err != nil {
				t.Fatal(err)
			}
			shapesSeen[j.Shape]++
			faults[j.Fault]++
			for _, n := range j.Branches {
				if n < 3 || n > 12 {
					t.Errorf("job %d: explore with %d branches", i, n)
				}
			}
			again, _ := st.job(i)
			if string(again.Spec) != string(j.Spec) || string(again.Faults) != string(j.Faults) {
				t.Errorf("job %d is not a pure function of (seed, index)", i)
			}
		}
		if len(shapesSeen) != len(shapes) {
			t.Errorf("round %d uses %d shapes, want %d", r, len(shapesSeen), len(shapes))
		}
		if faults["crash"] != 1 || faults["panic"] != 1 {
			t.Errorf("round %d faults %v, want one crash and one panic", r, faults)
		}
	}
}

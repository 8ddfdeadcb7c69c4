package vhadoop_test

// Rerun determinism matrix: every workload × platform-seed × fault-schedule
// case runs twice from scratch, and every artifact the platform produces —
// job output, event trace, observability snapshot, span trace, end time,
// even the error — must be byte-identical. The chaos suites re-run only
// Wordcount and TeraSort and compare only trace and end time; this matrix
// is what pins Canopy and DFSIO, and the metrics and spans of all four.
//
// The test keeps its historical name: it began as the differential between
// the sharded engine and the sequential one, and when sharding was removed
// the second run became a plain sequential rerun over the same cases.

import (
	"fmt"
	"testing"

	"vhadoop/internal/faults"
	"vhadoop/internal/faults/chaostest"
)

// chaosArtifacts flattens one chaos run into the comparable artifact set.
func chaosArtifacts(r chaostest.Result, err error) []digest {
	errs := ""
	if err != nil {
		errs = err.Error()
	}
	return []digest{
		{Name: "error", Data: errs},
		{Name: "output", Data: r.Output},
		{Name: "end", Data: fmt.Sprintf("%v", r.End)},
		{Name: "trace", Data: r.Trace},
		{Name: "metrics", Data: r.Metrics},
		{Name: "spans", Data: r.TraceJSON},
	}
}

func TestShardedPlatformDifferential(t *testing.T) {
	workloads := []chaostest.Workload{
		chaostest.Wordcount(),
		chaostest.TeraSort(),
		chaostest.Canopy(),
		chaostest.DFSIO(),
	}
	platformSeeds := []int64{42, 7, 1234}
	schedules := []struct {
		name string
		seed int64
	}{
		{"fault-free", 0},
		{"chaos5", 5},
		{"chaos9", 9},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, pseed := range platformSeeds {
				for _, sc := range schedules {
					pseed, sc := pseed, sc
					t.Run(fmt.Sprintf("seed%d/%s", pseed, sc.name), func(t *testing.T) {
						var sched faults.Schedule
						if sc.seed != 0 {
							sched = chaostest.GenSchedule(sc.seed, 3, 30)
							if len(sched.Faults) == 0 {
								t.Fatal("empty fault schedule: this case tests nothing")
							}
						}
						r1, err1 := chaostest.Run(w, pseed, sched)
						if sc.seed == 0 && err1 != nil {
							t.Fatalf("fault-free run failed: %v", err1)
						}
						// Fault-free platform runs keep the engine trace empty by
						// design (component events live in spans/metrics); only a
						// faulted schedule is guaranteed trace lines.
						if sc.seed != 0 && r1.Trace == "" {
							t.Fatal("faulted run produced no trace")
						}
						if r1.Metrics == "" || r1.TraceJSON == "" {
							t.Fatal("run produced no observability artifacts")
						}
						r2, err2 := chaostest.Run(w, pseed, sched)
						requireIdentical(t, "rerun", chaosArtifacts(r1, err1), chaosArtifacts(r2, err2))
					})
				}
			}
		})
	}
}

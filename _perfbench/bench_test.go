package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"vhadoop/internal/core"
)

// runSeeds runs every sub-seed of the default seed once on a fresh bench.
func runSeeds(t *testing.T, w workload) *bench {
	t.Helper()
	b, err := newBench(w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.runEachSeed(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRepeatsExactly runs each workload twice at its default seed: every
// digest (checked against the golden inside the run) and every exact
// count must be identical.
func TestRepeatsExactly(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := runSeeds(t, w), runSeeds(t, w)
			if a.golden == nil {
				t.Fatal("no golden digests recorded")
			}
			if !reflect.DeepEqual(a.digests, b.digests) {
				t.Errorf("digests differ:\n%v\n%v", a.digests, b.digests)
			}
			for i := range a.counts {
				if *a.counts[i] != *b.counts[i] {
					t.Errorf("seed %d counts differ:\n%+v\n%+v", a.seeds[i], *a.counts[i], *b.counts[i])
				}
			}
		})
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPrintsDeclaredMetrics checks that each workload prints exactly the
// metrics BENCHMARK.json declares, with the declared units, in both
// modes, and that the traced run's profile buckets sum to at most 100%.
func TestPrintsDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := d.EndToEnd
				if traced {
					want = d.PerLayer
				}
				res, err := runWorkload(w, defaultSeed, 0.01, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("traced=%v: %d of %d failed", traced, res.Failed, res.Attempted)
				}
				var got, names []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				for _, m := range want {
					names = append(names, m.Name)
					if res.Metrics[m.Name].Unit != m.Unit {
						t.Errorf("traced=%v: %s unit %q, declared %q", traced, m.Name, res.Metrics[m.Name].Unit, m.Unit)
					}
				}
				sort.Strings(got)
				sort.Strings(names)
				if !reflect.DeepEqual(got, names) {
					t.Errorf("traced=%v: printed %v\ndeclared %v", traced, got, names)
				}
				if !traced {
					continue
				}
				sum := 0.0
				for _, b := range bucketNames {
					sum += res.Metrics[shareKey(b)].Value
				}
				if sum > 100+1e-9 {
					t.Errorf("profile buckets sum to %v%%", sum)
				}
			}
		})
	}
}

func TestBucketOf(t *testing.T) {
	const r = "vhadoop/internal/"
	procRoot := []string{r + "sim.(*Proc).start.func1", "runtime.goexit"}
	cases := []struct {
		stack []string
		want  string
	}{
		{append([]string{"runtime.mallocgc", r + "mapreduce.sortKVs"}, procRoot...), "runtime.malloc"},
		{append([]string{"sort.insertionSort", r + "mapreduce.sortKVs"}, procRoot...), "mapreduce.dataplane"},
		{append([]string{r + "workloads.eachWord", r + "mapreduce.(*Cluster).runMap"}, procRoot...), "mapreduce.dataplane"},
		{append([]string{r + "mapreduce.(*Cluster).LocalityScore", r + "jobsvc.(*Service).pickJob",
			r + "jobsvc.(*Service).tickOnce"}, procRoot...), "jobsvc.sched"},
		{[]string{r + "vnet.(*Fabric).recomputeRates", r + "sim.(*Engine).RunUntil", "main.main"}, "vnet.solver"},
		{append([]string{"container/heap.up", r + "sim.(*eventHeap).push"}, procRoot...), "sim.engine"},
		{append([]string{"runtime.chanrecv1", r + "sim.(*Proc).yield"}, procRoot...), "sim.handoff"},
		{append([]string{r + "datasets.Text", "main.simBacklog.func1"}, procRoot...), "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct{ n, want, pct float64 }{
		{100, 90, 90},    // ten samples beyond
		{5000, 4950, 99}, // capped at p99
		{5, 5, 100},      // too few samples: the largest
	} {
		xs := make([]float64, int(c.n))
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if v, pct := tail(xs); v != c.want || pct != c.pct {
			t.Errorf("tail of 1..%v = %v at p%v, want %v at p%v", c.n, v, pct, c.want, c.pct)
		}
	}
}

func TestDeriveSeeds(t *testing.T) {
	a, b := deriveSeeds(1), deriveSeeds(2)
	if !reflect.DeepEqual(a, deriveSeeds(1)) || reflect.DeepEqual(a, b) {
		t.Errorf("deriveSeeds not a pure function of its seed: %v %v", a, b)
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if s <= 0 || seen[s] {
			t.Errorf("bad or repeated derived seed %d in %v", s, a)
		}
		seen[s] = true
	}
}

// fakeBench runs simulate in place of a real workload, with no golden.
func fakeBench(t *testing.T, simulate func(int64, any, *tracer) (*simOut, error)) *bench {
	t.Helper()
	b := bareBench(workload{name: "fake", prepare: func(int64) any { return nil }, simulate: simulate}, 7)
	b.prepareInputs()
	return b
}

// TestFailuresAreCounted checks that an erroring simulation, a digest that
// changes between repeats and a hung simulation each count as a failure.
func TestFailuresAreCounted(t *testing.T) {
	b := fakeBench(t, func(int64, any, *tracer) (*simOut, error) { return nil, errors.New("boom") })
	if _, hung := b.simulate(nil); hung || b.failed != 1 || b.attempted != 1 {
		t.Errorf("erroring simulation: hung=%v failed=%d attempted=%d", hung, b.failed, b.attempted)
	}

	calls := 0
	b = fakeBench(t, func(int64, any, *tracer) (*simOut, error) {
		calls++
		pl, err := newPlatform(nil, 1, core.Normal)
		return &simOut{digest: fmt.Sprint(calls), pl: pl}, err
	})
	for i := 0; i < 2; i++ { // both calls run sub-seed 0
		b.next = 0
		b.simulate(nil)
	}
	if b.failed != 1 {
		t.Errorf("changing digest: failed=%d, want 1", b.failed)
	}

	release := make(chan struct{})
	defer close(release)
	b = fakeBench(t, func(int64, any, *tracer) (*simOut, error) {
		<-release
		return nil, nil
	})
	b.watchdog = 10 * time.Millisecond
	if _, hung := b.simulate(nil); !hung || b.failed != 1 {
		t.Errorf("hung simulation: hung=%v failed=%d", hung, b.failed)
	}
}

// Command perfbench is the repository benchmark. It drives three
// workloads through the simulator's public packages, times every
// simulation on the host, checks every output, and prints the metrics
// BENCHMARK.json declares: end-to-end metrics from an untraced run
// (-trace 0) or per-layer metrics from a traced run (-trace 1).
//
// Build and run it from the repository root through the wrapper, which
// keeps the Go build cache inside the checkout:
//
//	python3 _perfbench/run.py --workload wordcount-sort --seed 1 --seconds 20 --trace 0
//	python3 _perfbench/run.py --workload all --seconds 4
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed = 1
	subSeeds    = 8 // distinct simulations per run, derived from -seed
	setups      = 5 // set-up repetitions; setup_s is their median
	// watchdog is the host time one simulation may take before it counts
	// as hung.
	watchdog = 30 * time.Second
)

//go:embed golden.json
var goldenJSON []byte

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload name, or all")
		seed       = flag.Int64("seed", defaultSeed, "workload seed; the run's simulations use seeds derived from it")
		seconds    = flag.Float64("seconds", 10, "host seconds to measure")
		traced     = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir     = flag.String("out", ".bench_out", "directory for the traced run's span JSON and profile")
		goldenPath = flag.String("write-golden", "", "record the default seed's digests into this file and exit")
	)
	flag.Parse()
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *goldenPath != "" {
		if err := writeGolden(*goldenPath); err != nil {
			fatal(err)
		}
		return
	}
	var (
		res result
		err error
	)
	if *name == "all" {
		res, err = runAll(*seed, *seconds, *outDir)
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want %s or all)", *name, workloadNames()))
		}
		res, err = runWorkload(w, *seed, *seconds, *traced == 1, *outDir)
	}
	if err != nil {
		fatal(err)
	}
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// emit prints the metrics by name with units, then the JSON result line.
func emit(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-34s %14.6g %s (%d of %d)\n", "fail_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// deriveSeeds returns the run's fixed list of simulation seeds: a pure
// function of the workload seed, never of an iteration count.
func deriveSeeds(seed int64) []int64 {
	out := make([]int64, subSeeds)
	for i := range out {
		x := uint64(seed)*subSeeds + uint64(i) + 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
		out[i] = int64(x>>1) | 1
	}
	return out
}

// bench is one workload's measurement state within a run.
type bench struct {
	w      workload
	seeds  []int64
	inputs []any
	golden []string // expected digests per sub-seed (default seed only)

	digests []string  // first digest seen per sub-seed
	counts  []*counts // exact counts per sub-seed
	next    int       // next simulation index

	attempted, failed int
	firstErr          error
	watchdog          time.Duration
}

// outcome is one simulation's result and host duration.
type outcome struct {
	out *simOut
	err error
	dur time.Duration
}

// simulate runs simulation i of the rotation under the watchdog. It
// reports whether the simulation hung; a hung simulation's goroutine is
// abandoned and the run must end.
func (b *bench) simulate(tr *tracer) (outcome, bool) {
	i := b.next % len(b.seeds)
	id := b.next
	b.next++
	b.attempted++
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			if r := recover(); r != nil {
				o.err = fmt.Errorf("panic: %v", r)
				ch <- o
			}
		}()
		start := time.Now()
		tr.startSim(id)
		o.out, o.err = b.w.simulate(b.seeds[i], b.inputs[i], tr)
		tr.endSim()
		o.dur = time.Since(start)
		ch <- o
	}()
	timer := time.NewTimer(b.watchdog)
	defer timer.Stop()
	var o outcome
	select {
	case o = <-ch:
	case <-timer.C:
		b.fail(fmt.Errorf("simulation %d (seed %d) still running after %s", id, b.seeds[i], b.watchdog))
		return o, true
	}
	if o.err == nil {
		o.err = b.check(i, o.out)
	}
	if o.err != nil {
		b.fail(fmt.Errorf("simulation %d (seed %d): %w", id, b.seeds[i], o.err))
	}
	return o, false
}

func (b *bench) fail(err error) {
	b.failed++
	if b.firstErr == nil {
		b.firstErr = err
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", err)
	}
}

// check compares a digest against the golden (default seed) and against
// earlier repeats of the same sub-seed, and records the exact counts.
func (b *bench) check(i int, o *simOut) error {
	if b.golden != nil && o.digest != b.golden[i] {
		return fmt.Errorf("digest %s, golden %s", o.digest, b.golden[i])
	}
	if b.digests[i] == "" {
		b.digests[i] = o.digest
		o.fillObs()
		c := o.counts
		b.counts[i] = &c
	} else if o.digest != b.digests[i] {
		return fmt.Errorf("digest %s differs from an earlier repeat's %s", o.digest, b.digests[i])
	}
	o.pl = nil
	return nil
}

func (b *bench) prepareInputs() {
	b.inputs = make([]any, len(b.seeds))
	for i, s := range b.seeds {
		b.inputs[i] = b.w.prepare(s)
	}
}

// setup builds every sub-seed's inputs and runs one untimed warm-up
// simulation.
func (b *bench) setup() (time.Duration, bool) {
	start := time.Now()
	b.prepareInputs()
	b.next = 0
	_, hung := b.simulate(nil)
	b.next = 0
	return time.Since(start), hung
}

// runEachSeed prepares the inputs and simulates every sub-seed once.
func (b *bench) runEachSeed() error {
	b.prepareInputs()
	for range b.seeds {
		if _, hung := b.simulate(nil); hung {
			break
		}
	}
	if b.failed > 0 {
		return fmt.Errorf("%s: %d of %d simulations failed: %v", b.w.name, b.failed, b.attempted, b.firstErr)
	}
	return nil
}

// bareBench is a bench with no golden digests to check against.
func bareBench(w workload, seed int64) *bench {
	return &bench{
		w:        w,
		seeds:    deriveSeeds(seed),
		digests:  make([]string, subSeeds),
		counts:   make([]*counts, subSeeds),
		watchdog: watchdog,
	}
}

// newBench is a bench that, at the default seed, checks every digest
// against golden.json.
func newBench(w workload, seed int64) (*bench, error) {
	b := bareBench(w, seed)
	if seed == defaultSeed {
		var golden map[string][]string
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
		b.golden = golden[w.name]
		if len(b.golden) != len(b.seeds) {
			return nil, fmt.Errorf("golden.json: %s has %d digests, want %d", w.name, len(b.golden), len(b.seeds))
		}
	}
	return b, nil
}

// phase is one timed loop's samples.
type phase struct {
	ms               []float64
	hostSec, vsec    float64
	allocB, allocObj float64
	gcCycles         float64
}

var rtMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readRT() [3]float64 {
	s := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// measure runs simulations back to back until the budget is spent and
// every sub-seed has run at least once. It reports whether one hung.
func (b *bench) measure(budget time.Duration, tr *tracer) (phase, bool) {
	var p phase
	rt0 := readRT()
	start := time.Now()
	for n := 0; n < len(b.seeds) || time.Since(start) < budget; n++ {
		o, hung := b.simulate(tr)
		if hung {
			return p, true
		}
		if o.err != nil {
			continue
		}
		ms := float64(o.dur) / 1e6
		p.ms = append(p.ms, ms)
		p.hostSec += ms / 1e3
		p.vsec += o.out.counts.VsecEnd
	}
	rt1 := readRT()
	if n := float64(len(p.ms)); n > 0 {
		p.allocB = (rt1[0] - rt0[0]) / n
		p.allocObj = (rt1[1] - rt0[1]) / n
		p.gcCycles = (rt1[2] - rt0[2]) / n
	}
	return p, false
}

// median returns the middle of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the tail latency of xs and its percentile: the highest
// percentile that leaves at least ten samples beyond it, capped at p99 so
// that long runs do not report a single host hiccup.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) <= 10 {
		return s[len(s)-1], 100
	}
	k := min(len(s)-11, int(math.Ceil(0.99*float64(len(s))))-1) // 0-based rank
	return s[k], 100 * float64(k+1) / float64(len(s))
}

// peakRSSMB returns the process's peak resident set (VmHWM), falling back
// to the Go runtime's total mapped memory where /proc is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

func header(w workload, seed int64, seconds float64, traced bool, seeds []int64) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, seconds, traced)
	fmt.Printf("  go=%s GOMAXPROCS=%d nproc=%d sim-seeds=%v\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), seeds)
	fmt.Printf("  size: %s\n  why: %s\n", w.size, w.why)
}

// runWorkload is one benchmark run: set-up (repeated), then either the
// untraced timed loop (end-to-end metrics) or an untraced and a traced
// loop of half the budget each (per-layer metrics).
func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string) (result, error) {
	b, err := newBench(w, seed)
	if err != nil {
		return result{}, err
	}
	header(w, seed, seconds, traced, b.seeds)
	res := result{Metrics: map[string]metric{}}
	finish := func() result {
		res.Attempted, res.Failed = b.attempted, b.failed
		res.Correct = b.failed == 0 && b.attempted > 0
		return res
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		d, hung := b.setup()
		if hung {
			return finish(), nil
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	budget := time.Duration(seconds * float64(time.Second))
	if !traced {
		p, hung := b.measure(budget, nil)
		if hung || len(p.ms) == 0 {
			return finish(), nil
		}
		t, pct := tail(p.ms)
		fmt.Printf("  samples=%d sim_ms_tail=p%.2f\n", len(p.ms), pct)
		res.Metrics["vsec_per_s"] = metric{p.vsec / p.hostSec, "vsec/s"}
		res.Metrics["sim_ms_p50"] = metric{median(p.ms), "ms"}
		res.Metrics["sim_ms_tail"] = metric{t, "ms"}
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		return finish(), nil
	}

	plain, hung := b.measure(budget/2, nil)
	if hung {
		return finish(), nil
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	tr := newTracer()
	tp, hung := b.measure(budget/2, tr)
	pprof.StopCPUProfile()
	if hung || len(plain.ms) == 0 || len(tp.ms) == 0 {
		return finish(), nil
	}
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	shares, nSamples := bucketShares(samples)
	layerMetrics(res.Metrics, b, plain, tp, tr, shares, nSamples)
	fmt.Printf("  untraced samples=%d sim_ms_p50=%.4f; traced samples=%d sim_ms_p50=%.4f; profile samples=%d\n",
		len(plain.ms), median(plain.ms), len(tp.ms), median(tp.ms), nSamples)
	if err := writeTraceArtifacts(outDir, w.name, tr, prof.Bytes(), shares, nSamples); err != nil {
		return result{}, err
	}
	return finish(), nil
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, b *bench, plain, tp phase, tr *tracer, shares map[string]float64, nSamples int64) {
	spans := tr.perSim()
	for _, s := range []string{"core.new_platform", "hdfs.stage", "hdfs.write", "hdfs.read",
		"mapreduce.job", "jobsvc.submit", "jobsvc.drain", "obs.export"} {
		m[s+"_ms"] = metric{median(spans[s]), "ms"}
	}
	m["trace.overhead_ms"] = metric{median(tp.ms) - median(plain.ms), "ms"}
	for _, name := range bucketNames {
		m[shareKey(name)] = metric{shares[name], "%"}
	}
	m["profile.samples"] = metric{float64(nSamples), "count"}
	m["runtime.alloc_mb_per_sim"] = metric{plain.allocB / 1e6, "MB"}
	m["runtime.allocs_per_sim"] = metric{plain.allocObj, "count"}
	m["runtime.gc_cycles_per_sim"] = metric{plain.gcCycles, "count"}

	// Exact counts: the mean over the run's sub-seeds, each counted once.
	var c counts
	n := 0.0
	for _, sc := range b.counts {
		if sc != nil {
			c.add(sc)
			n++
		}
	}
	n = math.Max(n, 1)
	yield := 0.0
	if c.Attempts > 0 {
		yield = c.Tasks / c.Attempts
	}
	m["vnet.flows_per_sim"] = metric{c.Flows / n, "count"}
	m["vnet.link_gb_per_sim"] = metric{c.LinkBytes / n / 1e9, "GB"}
	m["hdfs.written_mb"] = metric{c.HDFSWritten / n / 1e6, "MB"}
	m["hdfs.read_mb"] = metric{c.HDFSRead / n / 1e6, "MB"}
	m["mapreduce.tasks_per_sim"] = metric{c.Tasks / n, "count"}
	m["mapreduce.attempt_yield"] = metric{yield, "ratio"}
	m["mapreduce.shuffle_mb"] = metric{c.Shuffle / n / 1e6, "MB"}
	m["mapreduce.spill_mb"] = metric{c.Spill / n / 1e6, "MB"}
	m["jobsvc.completed"] = metric{c.Completed / n, "count"}
	m["jobsvc.rejected"] = metric{c.Rejected / n, "count"}
	m["jobsvc.backfills"] = metric{c.Backfills / n, "count"}
	m["jobsvc.preemptions"] = metric{c.Preemptions / n, "count"}
	m["obs.spans_per_sim"] = metric{c.Spans / n, "count"}
	m["obs.series"] = metric{c.Series / n, "count"}
	m["obs.export_kb"] = metric{c.ExportBytes / n / 1e3, "kB"}
	m["model.vsec_per_sim"] = metric{c.VsecEnd / n, "vsec"}
}

// shareKey names a profile bucket's metric.
func shareKey(bucket string) string {
	switch bucket {
	case "hdfs", "obs":
		return bucket + ".pct"
	case "other":
		return "profile.other_pct"
	}
	return bucket + "_pct"
}

// writeTraceArtifacts writes the span JSON, the raw CPU profile and its
// bucketed shares under dir/<workload>.
func writeTraceArtifacts(dir, name string, tr *tracer, prof []byte, shares map[string]float64, nSamples int64) error {
	d := filepath.Join(dir, name)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	if err := tr.writeJSON(filepath.Join(d, "spans.json")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(d, "cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Samples int64              `json:"samples"`
		Shares  map[string]float64 `json:"shares_pct"`
	}{nSamples, shares}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(d, "profile.json"), data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s/{spans.json,cpu.pprof,profile.json}\n", d)
	return nil
}

// runAll runs every workload untraced and traced and merges the results,
// prefixing each metric with its workload.
func runAll(seed int64, seconds float64, outDir string) (result, error) {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w, seed, seconds, traced, outDir)
			if err != nil {
				return result{}, err
			}
			all.Correct = all.Correct && r.Correct
			all.Attempted += r.Attempted
			all.Failed += r.Failed
			for k, v := range r.Metrics {
				all.Metrics[w.name+"/"+k] = v
			}
		}
	}
	return all, nil
}

// writeGolden records the default seed's per-sub-seed digests.
func writeGolden(path string) error {
	golden := map[string][]string{}
	for _, w := range allWorkloads {
		b := bareBench(w, defaultSeed)
		if err := b.runEachSeed(); err != nil {
			return err
		}
		golden[w.name] = b.digests
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

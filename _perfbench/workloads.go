package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"vhadoop/internal/core"
	"vhadoop/internal/datasets"
	"vhadoop/internal/hdfs"
	"vhadoop/internal/jobsvc"
	"vhadoop/internal/mapreduce"
	"vhadoop/internal/sim"
	"vhadoop/internal/workloads"
)

// workload is one named benchmark workload. prepare builds the inputs of
// one sub-seed on the host (untimed set-up); simulate provisions a fresh
// platform, runs the workload on it and checks every output.
type workload struct {
	name     string
	size     string
	why      string
	prepare  func(seed int64) any
	simulate func(seed int64, in any, tr *tracer) (*simOut, error)
}

// counts are the per-simulation quantities that repeat exactly for a
// given seed: a change that moves one changed the simulated work.
type counts struct {
	VsecEnd     float64 // virtual end time of the simulation
	Flows       float64 // vnet flows started
	LinkBytes   float64 // Σ bytes carried over every fabric link
	HDFSWritten float64
	HDFSRead    float64
	Tasks       float64 // winning map + reduce tasks
	Attempts    float64 // task attempts, re-executions included
	Shuffle     float64
	Spill       float64
	Completed   float64 // jobsvc tickets finished without error
	Rejected    float64 // jobsvc admission rejects
	Backfills   float64
	Preemptions float64
	Spans       float64 // obs spans recorded by the platform
	Series      float64 // obs snapshot series
	ExportBytes float64 // operator export (Prometheus text + span JSON)
}

// simOut is one simulation's outcome.
type simOut struct {
	digest string // hash of the simulation's virtual results
	counts counts
	pl     *core.Platform // for the untimed obs counts; dropped after
}

// fillObs records the platform's obs counts. It runs outside the timed
// region, so only the workloads that export as part of their work pay for
// the export in sim_ms.
func (o *simOut) fillObs() {
	o.counts.Spans = float64(len(o.pl.Obs.Tracer().Export().Spans))
	o.counts.Series = float64(len(o.pl.Obs.Snapshot().Metrics))
}

// digester hashes a simulation's virtual results in a fixed order.
type digester struct{ buf []byte }

func (d *digester) f(vs ...float64) {
	for _, v := range vs {
		d.buf = strconv.AppendFloat(d.buf, v, 'g', -1, 64)
		d.buf = append(d.buf, ' ')
	}
}

func (d *digester) s(v string) { d.buf = append(append(d.buf, v...), '\n') }

func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}

// newPlatform provisions the platform under a core.new_platform span.
func newPlatform(tr *tracer, seed int64, layout core.Layout) (*core.Platform, error) {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Nodes = 16
	opts.Layout = layout
	sp := tr.begin("core.new_platform")
	pl, err := core.NewPlatform(opts)
	tr.end(sp)
	return pl, err
}

// platformCounts fills the vnet and HDFS counts every workload reports.
func platformCounts(pl *core.Platform, end sim.Time) counts {
	c := counts{
		VsecEnd:     end,
		Flows:       float64(pl.Fabric.FlowsStarted()),
		HDFSWritten: pl.DFS.BytesWritten(),
		HDFSRead:    pl.DFS.BytesRead(),
	}
	for _, l := range pl.Fabric.Links() {
		c.LinkBytes += l.BytesCarried()
	}
	return c
}

// add accumulates another simulation's counts.
func (c *counts) add(o *counts) {
	c.VsecEnd += o.VsecEnd
	c.Flows += o.Flows
	c.LinkBytes += o.LinkBytes
	c.HDFSWritten += o.HDFSWritten
	c.HDFSRead += o.HDFSRead
	c.Tasks += o.Tasks
	c.Attempts += o.Attempts
	c.Shuffle += o.Shuffle
	c.Spill += o.Spill
	c.Completed += o.Completed
	c.Rejected += o.Rejected
	c.Backfills += o.Backfills
	c.Preemptions += o.Preemptions
	c.Spans += o.Spans
	c.Series += o.Series
	c.ExportBytes += o.ExportBytes
}

func (c *counts) addJob(st mapreduce.JobStats) {
	c.Tasks += float64(st.MapTasks + st.ReduceTasks)
	c.Attempts += float64(st.Attempts)
	c.Shuffle += st.ShuffledBytes
	c.Spill += st.SpillBytes
}

// --- wordcount-sort ---------------------------------------------------------

const (
	wcBytes   = 512e6
	wcReduces = 8
	wcPath    = "/wc/in"
)

type wcInput struct {
	recs []hdfs.Record
	want map[string]int
}

var wordcountSort = workload{
	name: "wordcount-sort",
	size: "512 MB datasets.Text corpus, 16 nodes normal layout, 8 reduces, combiner off",
	why:  "every record goes through map, spill sort, partition, shuffle, k-way merge and reduce",
	prepare: func(seed int64) any {
		recs := datasets.Text(rand.New(rand.NewSource(seed)), datasets.DefaultTextOptions(wcBytes))
		return &wcInput{recs: recs, want: datasets.CountWords(recs)}
	},
	simulate: simWordcount,
}

func simWordcount(seed int64, in any, tr *tracer) (*simOut, error) {
	wi := in.(*wcInput)
	pl, err := newPlatform(tr, seed, core.Normal)
	if err != nil {
		return nil, err
	}
	var st mapreduce.JobStats
	var out []mapreduce.KV
	end, err := pl.Run(func(p *sim.Proc) error {
		sp := tr.begin("hdfs.stage")
		_, err := pl.LoadText(p, wcPath, wcBytes, wi.recs)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("mapreduce.job")
		defer tr.end(sp)
		h, err := pl.MR.Submit(p, workloads.WordcountJob(wcPath, "", wcReduces, false))
		if err != nil {
			return err
		}
		if st, err = h.Wait(p); err != nil {
			return err
		}
		out = h.OutputRecords()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) != len(wi.want) {
		return nil, fmt.Errorf("wordcount: %d distinct words, reference has %d", len(out), len(wi.want))
	}
	var d digester
	for _, kv := range out {
		n, ok := kv.Value.(int)
		if !ok || n != wi.want[kv.Key] {
			return nil, fmt.Errorf("wordcount: %q counted %v, reference %d", kv.Key, kv.Value, wi.want[kv.Key])
		}
		d.s(kv.Key)
		d.f(float64(n))
	}
	d.f(end, st.Runtime, float64(st.MapTasks), float64(st.ReduceTasks), float64(st.Attempts), st.ShuffledBytes, st.SpillBytes)
	o := &simOut{digest: d.sum(), counts: platformCounts(pl, end), pl: pl}
	o.counts.addJob(st)
	return o, nil
}

// --- dfsio-xdomain ----------------------------------------------------------

var dfsioOpts = workloads.DFSIOOptions{Files: 15, FileBytes: 512e6}

var dfsioXdomain = workload{
	name:     "dfsio-xdomain",
	size:     "TestDFSIO 15 files x 512 MB write then read, 16 nodes cross-domain layout",
	why:      "no records, so the data plane is bypassed; every byte is a multi-hop max-min flow through guest NICs and the NFS filer",
	prepare:  func(int64) any { return nil },
	simulate: simDFSIO,
}

func simDFSIO(seed int64, _ any, tr *tracer) (*simOut, error) {
	pl, err := newPlatform(tr, seed, core.CrossDomain)
	if err != nil {
		return nil, err
	}
	var w, r workloads.DFSIOResult
	end, err := pl.Run(func(p *sim.Proc) error {
		var err error
		sp := tr.begin("hdfs.write")
		w, err = workloads.RunDFSIOWrite(p, pl, dfsioOpts)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("hdfs.read")
		r, err = workloads.RunDFSIORead(p, pl, dfsioOpts)
		tr.end(sp)
		return err
	})
	if err != nil {
		return nil, err
	}
	c := platformCounts(pl, end)
	total := dfsioOpts.FileBytes * float64(dfsioOpts.Files)
	if want := total * float64(pl.Opts.HDFS.Replication); c.HDFSWritten != want {
		return nil, fmt.Errorf("dfsio: wrote %.0f bytes, want %.0f", c.HDFSWritten, want)
	}
	if c.HDFSRead != total {
		return nil, fmt.Errorf("dfsio: read %.0f bytes, want %.0f", c.HDFSRead, total)
	}
	if !(w.ThroughputMBps > 0 && r.ThroughputMBps > 0) {
		return nil, fmt.Errorf("dfsio: throughput write %v read %v MB/s", w.ThroughputMBps, r.ThroughputMBps)
	}
	var d digester
	d.f(end, w.Elapsed, w.ThroughputMBps, r.Elapsed, r.ThroughputMBps)
	return &simOut{digest: d.sum(), counts: c, pl: pl}, nil
}

// --- jobsvc-backlog ---------------------------------------------------------

const (
	backlogTenants = 50
	backlogJobs    = 400
)

// backlogJob is one planned submission.
type backlogJob struct {
	tenant   string
	spec     workloads.Spec
	priority int
	deadline sim.Time // offset from submission; 0 for none
}

type backlogInput struct {
	weights []float64
	jobs    []backlogJob
}

// backlogSizes are the wordcount footprints the mix draws from.
var backlogSizes = [4]float64{8e6, 16e6, 48e6, 96e6}

var jobsvcBacklog = workload{
	name:     "jobsvc-backlog",
	size:     fmt.Sprintf("%d tenants x %d mixed jobs (wordcount + DFSIO pairs), 16 nodes normal layout", backlogTenants, backlogJobs),
	why:      "the only workload where the fair-share scheduler and the obs export do real work; many small jobs stress process hand-off",
	prepare:  prepareBacklog,
	simulate: simBacklog,
}

// prepareBacklog builds the job mix. Its composition is fixed — sizes
// cycle through backlogSizes, one job in thirteen is a DFSIO pair, one in
// nine has a raised priority and one in six a deadline, tenant weights
// cycle 1..4 — so every seed carries the same total work; the seed
// shuffles which tenant gets which weight and in which order the jobs are
// submitted, which is what the scheduler's decisions depend on.
func prepareBacklog(seed int64) any {
	rng := rand.New(rand.NewSource(seed))
	in := &backlogInput{weights: make([]float64, backlogTenants)}
	for i := range in.weights {
		in.weights[i] = float64(1 + i%4)
	}
	rng.Shuffle(len(in.weights), func(a, b int) { in.weights[a], in.weights[b] = in.weights[b], in.weights[a] })
	for j := 0; j < backlogJobs; j++ {
		tn := tenantName(j % backlogTenants)
		bj := backlogJob{tenant: tn}
		if j%13 == 7 {
			bj.spec = workloads.DFSIOSpec{Options: workloads.DFSIOOptions{
				Files: 2, FileBytes: 2e6, Dir: fmt.Sprintf("/backlog/io/j%05d", j),
			}}
		} else {
			si := (j + j/backlogTenants) % len(backlogSizes)
			bj.spec = workloads.WordcountSpec{
				Input:     fmt.Sprintf("/backlog/%s/s%d", tn, si),
				SizeBytes: backlogSizes[si],
				Reduces:   1 + (j/3)%2,
				RealLines: 8,
			}
		}
		switch j % 9 {
		case 4:
			bj.priority = 1
		case 7:
			bj.priority = 2
		}
		if j%6 == 1 {
			bj.deadline = sim.Time(400 + 120*(j%7))
		}
		in.jobs = append(in.jobs, bj)
	}
	rng.Shuffle(len(in.jobs), func(a, b int) { in.jobs[a], in.jobs[b] = in.jobs[b], in.jobs[a] })
	return in
}

func tenantName(i int) string { return fmt.Sprintf("t%03d", i) }

func simBacklog(seed int64, in any, tr *tracer) (*simOut, error) {
	bi := in.(*backlogInput)
	pl, err := newPlatform(tr, seed, core.Normal)
	if err != nil {
		return nil, err
	}
	svc := jobsvc.New(pl, jobsvc.Config{
		Tick: 2, Backfill: true, Preemption: true, StarveWait: 40, MaxPreemptPerTick: 2,
	})
	for i, w := range bi.weights {
		if _, err := svc.Register(tenantName(i), w); err != nil {
			return nil, err
		}
	}
	var (
		tickets  []*jobsvc.Ticket
		results  []workloads.Result
		rejected int
		makespan sim.Time
	)
	end, err := pl.Run(func(p *sim.Proc) error {
		for j, bj := range bi.jobs {
			// Staging first is what Submit would do itself; spanning it
			// apart keeps HDFS staging out of the scheduler's admission
			// time.
			sp := tr.begin("hdfs.stage")
			err := bj.spec.Stage(p, pl)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("staging job %d: %w", j, err)
			}
			opts := []jobsvc.SubmitOption{jobsvc.WithoutOutput()}
			if bj.priority != 0 {
				opts = append(opts, jobsvc.WithPriority(bj.priority))
			}
			if bj.deadline != 0 {
				opts = append(opts, jobsvc.WithDeadline(p.Now()+bj.deadline))
			}
			sp = tr.begin("jobsvc.submit")
			tk, err := svc.Submit(p, bj.tenant, bj.spec, opts...)
			tr.end(sp)
			switch {
			case err == nil:
				tickets = append(tickets, tk)
			case errors.Is(err, jobsvc.ErrQueueFull),
				errors.Is(err, jobsvc.ErrTenantQueueFull),
				errors.Is(err, jobsvc.ErrCapacity):
				rejected++
			default:
				return fmt.Errorf("submitting job %d: %w", j, err)
			}
		}
		sp := tr.begin("jobsvc.drain")
		start := p.Now()
		svc.Start()
		svc.Drain(p)
		makespan = p.Now() - start
		tr.end(sp)
		for _, tk := range tickets {
			res, err := tk.Wait(p)
			if err != nil {
				return fmt.Errorf("job %d: %w", tk.ID(), err)
			}
			results = append(results, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp := tr.begin("obs.export")
	prom := pl.Obs.Snapshot().PrometheusText()
	spans := pl.Obs.Tracer().JSON()
	tr.end(sp)

	c := platformCounts(pl, end)
	c.Rejected = float64(rejected)
	c.Backfills = float64(svc.Backfills())
	c.Preemptions = float64(svc.Preemptions())
	c.ExportBytes = float64(len(prom) + len(spans))
	var d digester
	for i, tk := range tickets {
		if tk.State() != jobsvc.Done || tk.Err() != nil {
			return nil, fmt.Errorf("jobsvc: job %d ended %s: %v", tk.ID(), tk.State(), tk.Err())
		}
		c.Completed++
		for _, st := range results[i].Stats {
			c.addJob(st)
		}
		d.f(results[i].Elapsed)
	}
	if c.Completed+c.Rejected != float64(len(bi.jobs)) {
		return nil, fmt.Errorf("jobsvc: %d submitted != %v completed + %v rejected", len(bi.jobs), c.Completed, c.Rejected)
	}
	if prom == "" || spans == "" {
		return nil, errors.New("jobsvc: empty obs export")
	}
	d.f(end, makespan, svc.P99Wait(), svc.Jain(), c.Backfills, c.Preemptions)
	d.s(svc.Report())
	return &simOut{digest: d.sum(), counts: c, pl: pl}, nil
}

var allWorkloads = []workload{wordcountSort, dfsioXdomain, jobsvcBacklog}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

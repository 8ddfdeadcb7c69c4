package sim

import (
	"math"
	"runtime"
	"testing"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestEngineEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.At(2.0, func() { order = append(order, 2) })
	e.At(1.0, func() { order = append(order, 1) })
	e.At(3.0, func() { order = append(order, 3) })
	e.At(1.0, func() { order = append(order, 10) }) // same time: FIFO
	end := e.Run()
	if end != 3.0 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []int{1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := New(1)
	var at Time
	e.After(5, func() { at = e.Now() })
	e.Run()
	almost(t, at, 5, 0, "After(5) fire time")
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.At(1, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer not pending after scheduling")
	}
	if !tm.Cancel() {
		t.Fatal("Cancel returned false for pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", fired)
	}
	almost(t, e.Now(), 2.5, 0, "clock after RunUntil")
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after full Run, want 4 events", fired)
	}
}

func TestSpawnSleepSequence(t *testing.T) {
	e := New(1)
	var marks []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1)
		marks = append(marks, p.Now())
		p.Sleep(2)
		marks = append(marks, p.Now())
	})
	e.Run()
	if len(marks) != 2 {
		t.Fatalf("marks = %v", marks)
	}
	almost(t, marks[0], 1, 0, "first wake")
	almost(t, marks[1], 3, 0, "second wake")
}

func TestSpawnAfterDelaysStart(t *testing.T) {
	e := New(1)
	var started Time = -1
	e.SpawnAfter(4, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	almost(t, started, 4, 0, "delayed start")
}

func TestProcYieldInterleaving(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Yield()
		order = append(order, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		e := New(42)
		var out []float64
		for i := 0; i < 10; i++ {
			e.Spawn("p", func(p *Proc) {
				p.Sleep(p.Engine().Rand().Float64() * 10)
				out = append(out, p.Now())
			})
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	e := New(1)
	d := NewDone(e)
	cleaned := false
	e.Spawn("blocked", func(p *Proc) {
		defer func() { cleaned = true }()
		d.Wait(p) // never fired
	})
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs = %d, want 1 blocked", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after shutdown = %d", e.LiveProcs())
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run during shutdown")
	}
}

func TestStopAndResume(t *testing.T) {
	e := New(1)
	var fired []Time
	e.At(1, func() { fired = append(fired, 1); e.Stop() })
	e.At(2, func() { fired = append(fired, 2) })
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want just the event at t=1", fired)
	}
	e.Resume()
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v after resume", fired)
	}
}

func TestProcFailRecordsError(t *testing.T) {
	e := New(1)
	p := e.Spawn("failing", func(p *Proc) {
		p.Sleep(1)
		p.Fail(errTest)
	})
	var got error
	e.Spawn("watcher", func(w *Proc) {
		got = WaitProcs(w, p)
	})
	e.Run()
	if got != errTest {
		t.Fatalf("WaitProcs error = %v, want errTest", got)
	}
}

type testErr string

func (e testErr) Error() string { return string(e) }

var errTest = testErr("boom")

func TestAbortUnwindsParkedProcess(t *testing.T) {
	e := New(1)
	d := NewDone(e)
	cleaned := false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		d.Wait(p) // never fired
	})
	e.At(3, func() { p.Abort(errTest) })
	e.Run()
	if !p.Terminated() {
		t.Fatal("aborted process still live")
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run")
	}
	if p.Err() != errTest {
		t.Fatalf("err = %v", p.Err())
	}
	if !p.Done().Fired() {
		t.Fatal("done latch not fired after abort")
	}
}

func TestAbortReleasesQueueGrant(t *testing.T) {
	e := New(1)
	q := NewQueue(e, 1)
	// holder takes the unit; victim queues; abort victim, then a third
	// process must still get the unit (no leak, no stuck FIFO entry).
	e.Spawn("holder", func(p *Proc) {
		q.Acquire(p, 1)
		p.Sleep(5)
		q.Release(1)
	})
	victim := e.Spawn("victim", func(p *Proc) {
		q.Acquire(p, 1)
		q.Release(1)
	})
	e.At(1, func() { victim.Abort(errTest) })
	var thirdAt Time = -1
	e.Spawn("third", func(p *Proc) {
		p.Sleep(2) // arrive after the victim
		q.Acquire(p, 1)
		thirdAt = p.Now()
		q.Release(1)
	})
	e.Run()
	almost(t, thirdAt, 5, 1e-9, "third process acquires when holder releases")
	if q.Available() != 1 {
		t.Fatalf("available = %d at end", q.Available())
	}
}

func TestAbortTerminatedProcessIsNoop(t *testing.T) {
	e := New(1)
	p := e.Spawn("quick", func(p *Proc) {})
	e.Run()
	p.Abort(errTest) // must not panic or revive
	if p.Err() != nil {
		t.Fatalf("err = %v on completed process", p.Err())
	}
}

// A panic escaping a process body must surface synchronously in engine
// context (the goroutine that called Run): the coroutine re-raises it
// out of the engine's resume call, so the engine executes no further
// events after the crash.
func TestProcessPanicSurfacesInEngineContext(t *testing.T) {
	e := New(1)
	e.Spawn("buggy", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	witness := 0
	e.At(5, func() { witness++ })
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || msg != `sim: process "buggy" panicked: boom` {
			t.Fatalf("unexpected panic value: %v", r)
		}
		if witness != 0 {
			t.Fatalf("engine kept executing events after the process bug: witness=%d", witness)
		}
	}()
	e.Run()
	t.Fatal("Run returned; expected the process panic to propagate")
}

// A process body that exits through runtime.Goexit, as t.FailNow does,
// is a bug like a panic: its Done latch must not fire, and the Goexit
// must end the goroutine that called Run rather than let the engine
// keep executing events.
func TestProcessGoexitEndsRun(t *testing.T) {
	e := New(1)
	p := e.Spawn("failnow", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	witness := 0
	e.At(5, func() { witness++ })
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned; expected the Goexit to end its goroutine")
	}
	if witness != 0 {
		t.Fatalf("engine kept executing events after the Goexit: witness=%d", witness)
	}
	if p.Done().Fired() {
		t.Fatal("done latch fired for a process that left through Goexit")
	}
}

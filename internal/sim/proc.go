package sim

import (
	"fmt"
	"iter"
)

// errKilled unwinds a process coroutine during Engine.Shutdown.
type errKilled struct{ name string }

func (e errKilled) Error() string { return "sim: process killed: " + e.name }

// Proc is a simulated process: a coroutine the engine resumes and that
// suspends itself whenever it blocks, so exactly one of the two runs at
// any instant. All Proc methods must be called from the process's own
// body.
type Proc struct {
	engine     *Engine
	name       string
	spawnSeq   uint64                  // creation order, the engine's teardown order
	next       func() (struct{}, bool) // resumes the body until it suspends or ends; nil until started
	stop       func()                  // unwinds a suspended body
	suspend    func(struct{}) bool     // hands control back to the engine
	done       *Done
	terminated bool
	abortErr   error // pending Abort, delivered at the next resume
	err        error // value recovered from a Fail or Abort, if any
}

// start wraps the process body in a coroutine and runs it to its first
// suspension. Called in engine context by the start event created in
// Spawn.
func (p *Proc) start(fn func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		returned := false
		defer func() {
			r := recover()
			p.terminated = true
			delete(p.engine.procs, p)
			switch r := r.(type) {
			case nil:
				// A body that did not return left through runtime.Goexit
				// (t.FailNow). That is a bug, like a panic: Done stays
				// unfired, and iter.Pull re-raises the Goexit from next,
				// ending the goroutine that called Run.
				if returned {
					p.done.fire()
				}
			case errKilled:
				// Normal unwind during Shutdown.
			case procFailure:
				p.err = r.err
				p.done.fire()
			default:
				// A real bug in simulation code. iter.Pull re-raises it
				// from next, in engine context, so it lands on the
				// goroutine that called Run.
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}()
		fn(p)
		returned = true
	})
	p.engine.dispatch(p)
}

// procFailure carries an error through panic/recover in Fail.
type procFailure struct{ err error }

// Fail terminates the process immediately, recording err; Done waiters are
// still released and can inspect Err.
func (p *Proc) Fail(err error) {
	panic(procFailure{err: err})
}

// Abort asynchronously terminates the process with err the next time it
// would run: a parked process is woken immediately to unwind (its deferred
// cleanup runs, its Done latch fires with Err() == err). Aborting a
// terminated process is a no-op. Abort must be called from engine context
// or another process, never from the target itself (use Fail there).
func (p *Proc) Abort(err error) {
	if p.terminated || p.abortErr != nil {
		return
	}
	p.abortErr = err
	if p.next != nil {
		p.scheduleAt(p.engine.now)
	}
}

// Err returns the error recorded by Fail, or nil.
func (p *Proc) Err() error { return p.err }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// Done returns a latch that fires when the process terminates normally
// (including via Fail, but not when killed by Shutdown).
func (p *Proc) Done() *Done { return p.done }

// Terminated reports whether the process has finished.
func (p *Proc) Terminated() bool { return p.terminated }

// yield returns control to the engine and blocks until the engine resumes
// this process. Every blocking primitive bottoms out here.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(errKilled{p.name})
	}
	if p.abortErr != nil {
		panic(procFailure{err: p.abortErr})
	}
}

// block parks the process with no scheduled wakeup; something else (a Done
// firing, a queue grant) must schedule its resume event.
func (p *Proc) block() { p.yield() }

// scheduleAt enqueues a resume event for this process at time t.
func (p *Proc) scheduleAt(t Time) {
	p.engine.events.push(&event{at: t, seq: p.engine.nextSeq(), proc: p})
}

// Sleep suspends the process for d seconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %q", d, p.name))
	}
	p.scheduleAt(p.engine.now + d)
	p.yield()
}

// SleepUntil suspends the process until virtual time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.engine.now {
		return
	}
	p.scheduleAt(t)
	p.yield()
}

// Yield reschedules the process at the current time, letting other
// same-time events run first.
func (p *Proc) Yield() {
	p.scheduleAt(p.engine.now)
	p.yield()
}

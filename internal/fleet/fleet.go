// Package fleet is Marlin's campaign runner: it executes many independent
// simulations — named experiments, parameter-sweep points, seed replicates —
// across all CPU cores. Each sim.Engine is an isolated deterministic world,
// so campaigns are embarrassingly parallel; fleet supplies the orchestration
// the paper's "high-throughput testing" goal implies: a worker pool with
// per-job panic recovery, wall-clock timeouts and bounded retry, a JSONL
// result journal with checkpoint/resume, a live progress line, and
// aggregation across replicates.
//
// Determinism contract: a job's outcome depends only on its own closure (its
// config and seed), never on scheduling. Results are collected — and the
// OnResult hook is invoked — in submission order regardless of worker count,
// so a campaign at -j 8 is byte-identical to the same campaign at -j 1.
package fleet

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"marlin/internal/experiments"
)

// Output is the payload a job produces. Named experiments fill Table; a
// scenario sweep's runs fill a one-row Table and Samples (raw series such
// as FCTs, so replicate aggregation can merge distributions rather than
// averaging percentiles); library campaigns may fill Metrics.
type Output struct {
	// Metrics are scalar summary statistics, keyed by name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Samples are raw sample sets (e.g. "fct_us") for CDF merging.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Table is a full experiment artifact, when the job is one.
	Table *experiments.Result `json:"table,omitempty"`
}

// Job is one independent unit of campaign work. Run must be self-contained:
// it builds its own engine/tester from values captured in the closure and
// returns a pure function of them. IDs key the checkpoint journal, so they
// must be unique within a campaign and stable across reruns.
type Job struct {
	ID  string
	Run func() (*Output, error)
}

// JobResult records one job's outcome, successful or not. A failed job
// (error, panic, or timeout) carries the failure in Err; it never aborts
// the campaign.
type JobResult struct {
	ID        string  `json:"id"`
	Attempts  int     `json:"attempts"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Err       string  `json:"err,omitempty"`
	Output    *Output `json:"output,omitempty"`
	// Cached marks a result restored from the journal rather than rerun.
	Cached bool `json:"-"`
}

// OK reports whether the job succeeded.
func (r JobResult) OK() bool { return r.Err == "" }

// Options tune a campaign run.
type Options struct {
	// Workers is the pool size (<= 0 means GOMAXPROCS).
	Workers int
	// Timeout bounds one attempt's wall-clock time (0 = none). A timed-out
	// attempt is recorded as a failure; its goroutine is abandoned (Go
	// cannot preempt it), so campaigns survive hung jobs at the cost of a
	// leaked goroutine each.
	Timeout time.Duration
	// Retries is how many extra attempts a failed job gets.
	Retries int
	// Journal is a JSONL checkpoint path ("" = none). Completed jobs are
	// appended as they finish; rerunning a campaign against the same
	// journal skips jobs already recorded as successful (failures rerun).
	Journal string
	// Progress, when non-nil, receives a live one-line status
	// (done/total, failures, jobs/s, ETA), typically os.Stderr.
	Progress io.Writer
	// OnResult, when non-nil, is called once per job in submission order
	// (including journal-cached results) as results become emittable.
	// Returning an error cancels dispatch of not-yet-started jobs and
	// fails the campaign with that error.
	OnResult func(i int, r JobResult) error
}

// Run executes the jobs through the worker pool and returns their results
// in submission order. The returned error reports campaign-level failures
// only (bad options, journal IO, an OnResult abort); per-job failures are
// in the corresponding JobResult.Err.
func Run(jobs []Job, opts Options) ([]JobResult, error) {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.ID == "" {
			return nil, fmt.Errorf("fleet: job with empty ID")
		}
		if seen[j.ID] {
			return nil, fmt.Errorf("fleet: duplicate job ID %q", j.ID)
		}
		seen[j.ID] = true
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var cached map[string]JobResult
	var jw *journalWriter
	if opts.Journal != "" {
		var err error
		if cached, err = loadJournal(opts.Journal); err != nil {
			return nil, err
		}
		if jw, err = openJournal(opts.Journal); err != nil {
			return nil, err
		}
		defer jw.close()
	}

	n := len(jobs)
	results := make([]JobResult, n)
	done := make([]bool, n)
	prog := newProgress(opts.Progress, n)

	var (
		mu         sync.Mutex
		emitErr    error
		next       int // next index to hand to OnResult
		cancel     = make(chan struct{})
		cancelOnce sync.Once
	)
	// emitLocked drains the in-order frontier of completed jobs into
	// OnResult; callers hold mu.
	emitLocked := func() {
		for next < n && done[next] {
			if opts.OnResult != nil && emitErr == nil {
				if err := opts.OnResult(next, results[next]); err != nil {
					emitErr = err
					cancelOnce.Do(func() { close(cancel) })
				}
			}
			next++
		}
	}

	var pending []int
	mu.Lock()
	for i, job := range jobs {
		if r, ok := cached[job.ID]; ok {
			r.Cached = true
			results[i] = r
			done[i] = true
			prog.bump(!r.OK())
		} else {
			pending = append(pending, i)
		}
	}
	emitLocked()
	mu.Unlock()

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := runJob(jobs[i], opts)
				mu.Lock()
				results[i] = r
				done[i] = true
				if jw != nil {
					jw.append(r)
				}
				prog.bump(!r.OK())
				emitLocked()
				mu.Unlock()
			}
		}()
	}
feed:
	for _, i := range pending {
		select {
		case idx <- i:
		case <-cancel:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	prog.finish()

	if emitErr != nil {
		return results, emitErr
	}
	if jw != nil {
		if err := jw.error(); err != nil {
			return results, err
		}
	}
	return results, nil
}

// Failed counts unsuccessful results.
func Failed(results []JobResult) int {
	n := 0
	for _, r := range results {
		if !r.OK() {
			n++
		}
	}
	return n
}

// runJob executes one job with panic recovery, per-attempt timeout, and
// bounded retry.
func runJob(job Job, opts Options) JobResult {
	start := time.Now() //marlin:allow wallclock -- ElapsedMS reports host wall time per job; never feeds model state
	attempts := 0
	for {
		attempts++
		out, err := runOnce(job, opts.Timeout)
		elapsed := float64(time.Since(start)) / float64(time.Millisecond) //marlin:allow wallclock -- same host-side job timing

		if err == nil {
			return JobResult{ID: job.ID, Attempts: attempts, ElapsedMS: elapsed, Output: out}
		}
		if attempts > opts.Retries {
			return JobResult{ID: job.ID, Attempts: attempts, ElapsedMS: elapsed, Err: err.Error()}
		}
	}
}

// runOnce runs a single attempt in its own goroutine so that a panic is
// contained and a hung job can be abandoned at the timeout.
func runOnce(job Job, timeout time.Duration) (*Output, error) {
	type outcome struct {
		out *Output
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		out, err := job.Run()
		ch <- outcome{out, err}
	}()
	if timeout <= 0 {
		o := <-ch
		return o.out, o.err
	}
	//marlin:allow wallclock -- watchdog for hung host jobs; a fired timer only abandons the attempt
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.out, o.err
	case <-timer.C:
		return nil, fmt.Errorf("timed out after %v", timeout)
	}
}

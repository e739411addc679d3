package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/simfault"
	"hidisc/internal/workloads"
)

// Job names one independent simulation: a workload on an architecture
// with a memory hierarchy.
type Job struct {
	Workload string
	Arch     machine.Arch
	Hier     mem.HierConfig

	// Scale sizes the workload for Key(). The Runner executes every job
	// at its own Scale — this field exists so a content hash computed by
	// one process (e.g. the hidisc-serve result cache) distinguishes
	// test- from paper-scale submissions.
	Scale workloads.Scale

	// Configure, when non-nil, post-processes this job's machine
	// configuration (after the Runner-level hook). Jobs with a Configure
	// hook bypass the measurement cache — they are presumed perturbed
	// (fault injection, ablations) and must not pollute results shared
	// with unperturbed jobs.
	Configure func(*machine.Config)
}

// keyVersion prefixes every key's preimage. A change that moves any
// measurement byte must bump it, so result stores written by the old
// model stop answering; TestKeyVersionGuard fails until it does.
const keyVersion = "hidisc-job-v1"

// Key returns a canonical content hash of the job's simulation inputs:
// workload, architecture, the full hierarchy geometry and latencies,
// and workload scale. Simulations are deterministic, so two jobs with
// equal keys produce bit-identical Measurements; the hash is stable
// across processes and releases of this package (field order is fixed
// and versioned) and is used as the result-cache key by both the
// Runner and the hidisc-serve server.
//
// The Configure hook is deliberately excluded — a hook is an opaque
// perturbation, so jobs carrying one must never be cached by key (the
// Runner already bypasses its memo for them).
//
// The preimage is
//
//	<keyVersion>|<workload>|<arch>|<scale>|<L1D>|<L2>|<memLatency>
//
// with each cache written sets,ways,blockSize,latency and every number
// in decimal. It is built in a stack buffer, so the hex string is the
// one allocation.
func (j Job) Key() string {
	var buf [160]byte
	b := append(buf[:0], keyVersion...)
	b = append(append(b, '|'), j.Workload...)
	b = append(append(b, '|'), j.Arch...)
	b = strconv.AppendInt(append(b, '|'), int64(j.Scale), 10)
	b = appendCacheKey(append(b, '|'), j.Hier.L1D)
	b = appendCacheKey(append(b, '|'), j.Hier.L2)
	b = strconv.AppendInt(append(b, '|'), int64(j.Hier.MemLatency), 10)
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

func appendCacheKey(b []byte, c mem.CacheConfig) []byte {
	b = strconv.AppendInt(b, int64(c.Sets), 10)
	b = strconv.AppendInt(append(b, ','), int64(c.Ways), 10)
	b = strconv.AppendInt(append(b, ','), int64(c.BlockSize), 10)
	return strconv.AppendInt(append(b, ','), int64(c.Latency), 10)
}

// EffectiveWorkers resolves a requested worker count: n > 0 is taken
// literally, anything else (including the zero value) means one worker
// per CPU. Every fan-out entry point — RunJobs, RunAll, the figure
// helpers, hidisc-bench -j, hidisc-serve -j — routes through this so
// "0 workers" can never mean "no workers".
func EffectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// JobError attributes a failure to one job of a batch.
type JobError struct {
	Index int // position in the submitted job slice
	Job   Job
	Err   error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %d (%s on %s): %v", e.Index, e.Job.Workload, e.Job.Arch, e.Err)
}

// Unwrap exposes the underlying fault to errors.As / errors.Is.
func (e *JobError) Unwrap() error { return e.Err }

// safeRun executes one job inside a panic-containment boundary: a
// panic escaping compilation, verification, or measurement becomes an
// *simfault.InvariantFault instead of killing the worker goroutine
// (machine-level panics are already recovered inside RunContext with a
// full snapshot; this boundary catches everything around it).
func (r *Runner) safeRun(ctx context.Context, j Job) (m Measurement, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			m = Measurement{}
			err = &simfault.InvariantFault{
				Origin: fmt.Sprintf("experiments %s on %s", j.Workload, j.Arch),
				Reason: fmt.Sprint(rec),
				Stack:  string(debug.Stack()),
			}
		}
	}()
	return r.runJob(ctx, j)
}

// runJobs executes every job (healthy or not) across a worker pool and
// returns the per-job measurements and errors, both in job order.
func (r *Runner) runJobs(ctx context.Context, workers int, jobs []Job) ([]Measurement, []error) {
	workers = EffectiveWorkers(workers)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Measurement, len(jobs))
	errs := make([]error, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			results[i], errs[i] = r.safeRun(ctx, j)
		}
		return results, errs
	}
	// Warm the compile cache on one goroutine first: distinct workloads
	// single-flight anyway, but compiling up front keeps workers from
	// idling behind a shared Once when many jobs share one workload.
	// Failures are ignored here — the memoised error resurfaces on each
	// affected job so the attribution stays per-job.
	seen := map[string]bool{}
	for _, j := range jobs {
		if !seen[j.Workload] {
			seen[j.Workload] = true
			_, _ = r.Compile(j.Workload)
		}
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = r.safeRun(ctx, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errs
}

// RunJobs executes the jobs across a pool of worker goroutines and
// returns their measurements in job order. Each simulation is fully
// independent (its own machine.Machine, memory image, and hierarchy),
// so results are bit-identical to running the jobs sequentially —
// only the wall-clock order of execution differs.
//
// workers <= 0 means GOMAXPROCS. Every job runs to completion even
// when some fail; on error the first failure in job order is returned
// as a *JobError, matching what a sequential loop would report. Use
// RunJobsCollect to receive every failure.
func (r *Runner) RunJobs(workers int, jobs []Job) ([]Measurement, error) {
	return r.RunJobsContext(r.ctx(), workers, jobs)
}

// RunJobsContext is RunJobs under an explicit context; cancelling ctx
// aborts in-flight simulations with *simfault.TimeoutFault.
func (r *Runner) RunJobsContext(ctx context.Context, workers int, jobs []Job) ([]Measurement, error) {
	ms, errs := r.runJobs(ctx, workers, jobs)
	for i, err := range errs {
		if err != nil {
			return nil, &JobError{Index: i, Job: jobs[i], Err: err}
		}
	}
	return ms, nil
}

// RunJobsCollect executes every job and aggregates all failures with
// errors.Join, each wrapped in a *JobError naming the job it belongs
// to. Healthy jobs' measurements are valid (and bit-identical to a
// sequential run) even when other jobs in the batch deadlock or panic;
// failed jobs leave a zero Measurement at their index. Walk the
// aggregate with errors.As or simfault.WriteSnapshots.
func (r *Runner) RunJobsCollect(workers int, jobs []Job) ([]Measurement, error) {
	ms, errs := r.runJobs(r.ctx(), workers, jobs)
	var jerrs []error
	for i, err := range errs {
		if err != nil {
			jerrs = append(jerrs, &JobError{Index: i, Job: jobs[i], Err: err})
		}
	}
	return ms, errors.Join(jerrs...)
}

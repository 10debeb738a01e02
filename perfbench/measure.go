package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// minIterations is the fewest measured iterations a run makes, however
// short --seconds is.
const minIterations = 3

// sample is one timed call: host wall time, CPU time of this process
// and its waited-for children, and bytes allocated on this heap.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64
}

// timed runs fn once and measures it.
func timed(fn func() error) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return sample{wall: wall, cpu: c1 - c0, alloc: m1.TotalAlloc - m0.TotalAlloc}, err
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // only an invalid who fails
	}
	return ru
}

// cpuTime is user+system time of this process and its reaped children.
func cpuTime() time.Duration {
	var d time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		ru := rusage(who)
		d += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return d
}

// quartiles returns the first quartile, median and third quartile with
// the interpolation of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// report sets a metric to the median of its samples and records their
// spread.
func (r *result) report(name string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.Metrics[name] = metric{Value: med, Unit: units[name]}
	r.Spreads[name] = spread{N: len(xs), Min: slices.Min(xs), Q1: q1, Median: med, Q3: q3}
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // the clock exists on every Linux this runs on
	}
	return time.Duration(ts.Nano())
}

// setupSeconds times the workload's set-up repeatedly — at least
// setupReps times and for at least setupBudget — after one untimed
// warm-up, each from a collected heap. Set-up is single-threaded, so
// it is timed as the CPU time of its locked OS thread: the time the
// set-up work itself takes, without the stretches the host gave the
// core to someone else.
func setupSeconds(in *instance) ([]float64, error) {
	const setupReps, setupBudget, setupCap = 9, 300 * time.Millisecond, 200
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var xs []float64
	start := time.Now()
	for i := 0; i <= setupReps || (time.Since(start) < setupBudget && len(xs) < setupCap); i++ {
		runtime.GC()
		t0 := threadCPU()
		err := in.setup()
		d := threadCPU() - t0
		if err != nil {
			return nil, err
		}
		if i > 0 {
			xs = append(xs, d.Seconds())
		}
	}
	return xs, nil
}

// measure is the untraced run: set-up timing, then public iterations
// for cfg.seconds, each checked against the reference.
func measure(cfg config, in *instance, ref *reference, r *result) error {
	setups, err := setupSeconds(in)
	if in.cleanup != nil {
		in.cleanup()
	}
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	var samples []sample
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for i := 0; i < minIterations || time.Since(start) < budget; i++ {
		runtime.GC()
		s, err := in.public(ref)
		r.Attempted += len(in.jobs)
		if err != nil {
			r.Failed += len(in.jobs)
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %v\n", cfg.workload, i, err)
			continue
		}
		samples = append(samples, s)
	}
	if len(samples) == 0 {
		return fmt.Errorf("%s: every iteration failed", cfg.workload)
	}
	var wall, cpu, alloc, hops, jobs []float64
	for _, s := range samples {
		w := s.wall.Seconds()
		wall = append(wall, w)
		cpu = append(cpu, s.cpu.Seconds())
		alloc = append(alloc, float64(s.alloc)/1e6)
		hops = append(hops, float64(ref.hops)/w)
		jobs = append(jobs, float64(len(in.jobs))/w)
	}
	r.report("wall_s", wall)
	r.report("cpu_s", cpu)
	r.report("setup_s", setups)
	r.report("hops_per_s", hops)
	r.report("jobs_per_s", jobs)
	r.report("alloc_mb", alloc)
	return nil
}

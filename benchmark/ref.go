package main

import (
	"math"
	"time"
)

// The reference kernel. The sandbox this benchmark runs in shares its
// two cores and its memory system with other tenants, and its speed
// drifts by 15-30 % over minutes: ten runs of one commit then spread
// wider than a useful bound whatever statistic is taken inside a run
// (the fastest pass of a run drifts like the median pass). The drift is
// the box's, not the program's, so every run measures the box beside the
// program: before each pass it times a fixed computation that shares no
// code with the engine, and the wall-clock metrics of the window (pass_s,
// qps, class_geomean_ms) are scaled by refNominalMS / (the run's kernel
// time). A metric then reads
// "seconds on a box where the kernel takes refNominalMS". The raw
// wall-clock values stay in the detail rows (raw.*), the kernel's time is
// reported as ref.kernel_ms, and README.md gives the measured spreads
// with and without the correction.
//
// The kernel has three parts, one per resource the engine leans on and
// the neighbours contend for: a sequential sum over 32 MiB (memory
// bandwidth: scans, decompression), a linear-congruential scatter into
// 512 KiB (arithmetic with cache-resident random access: hash tables,
// expression kernels) and a ping-pong between two goroutines over
// unbuffered channels (wake-up latency: gangs, motion streams, the wire
// server). A run's kernel time is the geometric mean of the three parts'
// medians, so no part has to be sized against the others.
const (
	refStreamWords  = 4 << 20 // 32 MiB of uint64
	refScatterWords = 1 << 16 // 512 KiB of uint64
	refScatterSteps = 4 << 20
	refHandoffs     = 4000
	// refNominalMS is about the kernel's time on the sandbox at the commit
	// that added the benchmark. It only fixes the unit: a comparison of
	// two commits on one box does not depend on it.
	refNominalMS = 5.0
)

// refSample is one execution of the kernel: the wall time of each part
// in milliseconds.
type refSample [3]float64

// refKernel owns the kernel's buffers, allocated once per process.
type refKernel struct {
	stream  []uint64
	scatter []uint64
	// sink keeps the compiler from removing the loops.
	sink uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{stream: make([]uint64, refStreamWords), scatter: make([]uint64, refScatterWords)}
	for i := range k.stream {
		k.stream[i] = uint64(i)
	}
	return k
}

// run executes the kernel once.
func (k *refKernel) run() refSample {
	var s refSample
	ms := func(start time.Time) float64 { return float64(wall.Since(start)) / float64(time.Millisecond) }

	start := wall.Now()
	var sum uint64
	for _, x := range k.stream {
		sum += x
	}
	s[0] = ms(start)

	start = wall.Now()
	x := sum | 1
	for i := 0; i < refScatterSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k.scatter[x>>48] += x
	}
	k.sink += x
	s[1] = ms(start)

	start = wall.Now()
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < refHandoffs; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited
	s[2] = ms(start)
	return s
}

// refMS reduces kernel samples to one time: the geometric mean over the
// parts of each part's median.
func refMS(samples []refSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	logSum := 0.0
	part := make([]float64, len(samples))
	for p := range samples[0] {
		for i, s := range samples {
			part[i] = s[p]
		}
		logSum += math.Log(median(part))
	}
	return math.Exp(logSum / float64(len(samples[0])))
}

// refScale is the factor a wall-clock duration measured while the kernel
// took ms is multiplied by.
func refScale(ms float64) float64 {
	if ms <= 0 {
		return 1
	}
	return refNominalMS / ms
}

package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// refCalibMS is the calibration kernel's typical time on the 2-core
// machine the bounds in BENCHMARK.json were set on.
const refCalibMS = 30.0

// A calibrator times a fixed kernel between a run's operations to track
// how fast the machine is running. On a shared machine the same operation
// takes 10–35% longer during some minutes than others, in CPU time as
// well as wall time, and such a phase can span a whole run. The kernel
// slows with it, so a time multiplied by refCalibMS ÷ (the run's median
// kernel time) reads as milliseconds at the reference speed, and repeats
// across runs far better than the raw time. The kernel is this program's
// own code: no change to the code under test can move it.
type calibrator struct {
	xs  []float64
	buf []byte
	s   samples
}

func newCalibrator() *calibrator {
	return &calibrator{xs: make([]float64, 200_000), buf: make([]byte, 4<<20)}
}

// sample times the kernel once: sort 200k pseudo-random floats and hash
// 4 MiB.
func (c *calibrator) sample() {
	rng := rand.New(rand.NewSource(1))
	for i := range c.xs {
		c.xs[i] = rng.Float64()
	}
	start := time.Now()
	sort.Float64s(c.xs)
	sha256.Sum256(c.buf)
	c.s.add(ms(time.Since(start)))
}

// factor is what a time is multiplied by (and a rate divided by) to read
// at the reference speed; 1 before any sample.
func (c *calibrator) factor() float64 {
	if c.s.n() == 0 {
		return 1
	}
	return refCalibMS / c.s.median()
}

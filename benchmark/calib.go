package main

import "time"

// The calibration loop: a fixed piece of native Go work (refill a small
// map with pointers, look every key up; no allocation after the first run)
// that every client runs between its operations, every few milliseconds
// for the whole window.
//
// This machine is a small VM whose neighbours share its memory system, and
// the same binary runs 10-30% slower for seconds or minutes at a time. A
// pure-CPU loop does not notice (we tried: it stays within 2%); a loop
// that walks a hash table slows down by about as much as the compiler, the
// server and the compiled closures do. So every time this benchmark
// reports is multiplied by calibNominal / (median calibration time in the
// same window): microseconds as they would read with the machine quiet.
// That roughly halves to quarters the run-to-run spread of every timing.
// Ratios between two rows of one run are unaffected. The loop is part of
// the benchmark, not of the system, so no change to the system can move
// it.

// calibNominal is the loop's median on the reference machine when quiet;
// it only fixes the unit.
const calibNominal = 32 * time.Microsecond

// calibEvery is the least time between two calibration runs of a client.
const calibEvery = 4 * time.Millisecond

// calibrator is one client's calibration state; not for concurrent use.
type calibrator struct {
	m    map[int]*[4]int
	objs [400][4]int
	last time.Time
	ns   []float64
	sink int
}

func newCalibrator() *calibrator {
	return &calibrator{m: map[int]*[4]int{}, ns: make([]float64, 0, 1<<12)}
}

// tick runs the loop if calibEvery has passed since it last ran.
func (c *calibrator) tick(now time.Time) {
	if now.Sub(c.last) < calibEvery {
		return
	}
	c.last = now
	t0 := time.Now()
	clear(c.m)
	for i := range c.objs {
		o := &c.objs[i]
		o[0] = i
		c.m[i*7919%1000] = o
	}
	s := 0
	for i := 0; i < 1000; i++ {
		if p := c.m[i]; p != nil {
			s += p[0]
		}
	}
	c.sink = s
	c.ns = append(c.ns, float64(time.Since(t0)))
}

// scale is the factor that turns a raw duration of this window into
// quiet-machine time.
func calibScale(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return float64(calibNominal) / median(samples)
}

package main

import (
	"sort"
	"sync"
	"time"
)

// The machines this benchmark runs on are a few cores of a shared host,
// and they change speed by up to a third, for half a second or for a
// minute, for reasons outside them; everything running then is slower by
// about the same share. Over ten runs of ten seconds the interquartile
// spread of pairs_per_s, p50_ms and p95_ms by the wall clock was 15-23 %
// of the median on paper-point in a restless hour and 4-9 % on road-point
// in a quiet one; a run falls into such an episode or beside it, so no
// statistic within the run removes it. The harness therefore keeps time
// against a reference of its own: a fixed loop, one instance per client
// so that it loads the cores the way a timed phase does, run before and
// after every measured interval. The loop's speed relative to
// referenceSpeed is the machine-speed factor of the interval, and every
// reported time is the wall-clock time multiplied by that factor: the
// time the same work takes on the reference machine. The intervals are
// half a second long, because the speed changes that fast. The same runs
// read in reference time spread 3-6 % and 4-8 %.

// referenceSpeed is the calibration loop's speed, in loops per second
// over both clients, of the quiet 2-core sandbox the benchmark was
// sized on. It only fixes the unit; comparisons do not depend on it.
const referenceSpeed = 1700.0

const (
	// calibKeys is the number of map keys one calibration loop hashes and
	// sorts, calibTouches the number of words it then reads and writes at
	// random in its share of calibMemory: half of a loop computes in the
	// caches, half waits for memory, and a neighbour on the host slows
	// the two halves differently — as it does the serving code, which
	// allocates 30k objects per query. A loop that only computed followed
	// a slowdown of a quarter in the workload by a tenth.
	calibKeys    = 10007
	calibTouches = 12000
)

// calibMemory is what the calibration loops touch: 32 MiB without
// pointers, so the collector never scans it and a calibration neither
// allocates nor depends on the size of the heap.
var calibMemory = make([]int64, 4<<20)

// calibrate runs the fixed loop `loops` times on each client's goroutine
// and returns loops per second over all clients, from the median time of
// one loop: like the medians it scales, the speed then ignores a stall
// of a few milliseconds.
func calibrate(loops int) float64 {
	times := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m := make(map[int]int, calibKeys)
			keys := make([]int, 0, calibKeys)
			share := len(calibMemory) / clients
			mem := calibMemory[c*share : (c+1)*share]
			at := uint64(c*977 + 1)
			for n := -1; n < loops; n++ {
				start := time.Now()
				clear(m)
				for i := 0; i < calibKeys; i++ {
					m[i*7919%calibKeys] += i
				}
				keys = keys[:0]
				for k := range m {
					keys = append(keys, k)
				}
				sort.Ints(keys)
				var acc int64
				for i := 0; i < calibTouches; i++ {
					at = at*6364136223846793005 + 1442695040888963407
					j := int(at>>33) % len(mem)
					acc += mem[j]
					mem[j] = acc
				}
				if n >= 0 { // the first loop fills the map's buckets; it is not timed
					times[c] = append(times[c], seconds(time.Since(start)))
				}
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, t := range times {
		all = append(all, t...)
	}
	return float64(clients) / median(all)
}

// pacer calibrates between measured intervals.
type pacer struct {
	loops  int
	last   float64
	speeds []float64 // every calibration, for the result file
}

func newPacer(loops int) *pacer {
	p := &pacer{loops: loops}
	p.lap()
	return p
}

// lap calibrates and returns the machine-speed factor of the interval
// since the previous calibration: the mean of the two speeds that
// bracket it, over the reference speed.
func (p *pacer) lap() float64 {
	now := calibrate(p.loops)
	f := (p.last + now) / 2 / referenceSpeed
	p.last = now
	p.speeds = append(p.speeds, now)
	return f
}

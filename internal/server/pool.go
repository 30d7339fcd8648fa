package server

import "sync"

// sitePools realises the paper's persistent processors: one worker
// group per site, alive for the lifetime of the server, consuming leg
// tasks from a per-site queue. Concurrent queries interleave their legs
// on the owning site's workers — a site is busy the way the paper's
// fragment processors are busy — while distinct sites always run in
// parallel.
type sitePools struct {
	queues []chan func()
	wg     sync.WaitGroup
}

// siteWorkers is the number of worker goroutines per site: one, the
// paper's one processor per fragment, so each site serialises its legs
// exactly like a single-processor site would.
const siteWorkers = 1

// newSitePools starts siteWorkers goroutines for each of numSites
// queues.
func newSitePools(numSites int) *sitePools {
	p := &sitePools{queues: make([]chan func(), numSites)}
	for i := range p.queues {
		// A small buffer decouples query fan-out from worker pace; a
		// full queue back-pressures submitters instead of growing
		// unboundedly.
		q := make(chan func(), 64)
		p.queues[i] = q
		for w := 0; w < siteWorkers; w++ {
			p.wg.Add(1)
			go func(q chan func()) {
				defer p.wg.Done()
				for task := range q {
					task()
				}
			}(q)
		}
	}
	return p
}

// run executes one leg task on the site's worker and returns when it
// has finished, blocking first while the site's queue is full.
func (p *sitePools) run(site int, task func()) {
	done := make(chan struct{})
	p.queues[site] <- func() {
		task()
		close(done)
	}
	<-done
}

// close drains and stops all workers. Callers must not run tasks after
// close.
func (p *sitePools) close() {
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
}

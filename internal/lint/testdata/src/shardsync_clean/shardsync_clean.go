// Package shardsync_clean holds the joined-goroutine shapes detflow must
// accept: workers spawned onto goroutines, each deferring Done on a
// sync.WaitGroup the spawner Waits on after the spawn — a fork-join round,
// or a crew whose bodies are built ahead of time and joined in a deferred
// call. The join publishes every worker write before the spawner returns,
// so no scheduling choice escapes into replayed state.
package shardsync_clean

import "sync"

// Round fans partition work out across goroutines and joins before
// returning — the shard runner's round primitive.
func Round(parts []func()) {
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i]()
		}()
	}
	wg.Wait()
}

// RoundPtr runs the same barrier through a WaitGroup pointer.
func RoundPtr(parts []func(), wg *sync.WaitGroup) {
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i]()
		}()
	}
	wg.Wait()
}

// crew keeps worker bodies built once, so starting them allocates nothing.
type crew struct {
	serve []func()
	exit  sync.WaitGroup
}

// newCrew builds every worker body as a literal that defers Done.
func newCrew(work []func()) *crew {
	c := &crew{}
	c.serve = make([]func(), len(work))
	for i := range work {
		c.serve[i] = func() {
			defer c.exit.Done()
			work[i]()
		}
	}
	return c
}

// Run starts the stored bodies and joins them in a deferred call before
// returning — the shard runner's crew.
func (c *crew) Run() {
	for i := range c.serve {
		c.exit.Add(1)
		go c.serve[i]()
	}
	defer c.stop()
}

func (c *crew) stop() { c.exit.Wait() }

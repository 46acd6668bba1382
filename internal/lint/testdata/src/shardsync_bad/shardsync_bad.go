// Package shardsync_bad exercises the boundaries of detflow's joined-goroutine
// exemption: goroutines that touch cross-shard state without a join that
// orders their writes must stay findings.
package shardsync_bad

import "sync"

var shared int

// FreeRunning mutates shared state on a goroutine nobody joins; the write
// races whatever the next round reads.
func FreeRunning() {
	go func() {
		shared++
	}()
}

// DoneWithoutWait signals a WaitGroup the spawner never waits on, so the
// goroutine can still be running when the caller moves on.
func DoneWithoutWait(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		shared++
	}()
}

// WaitBeforeSpawn waits first and forks after; nothing joins the goroutine,
// the Wait is not a barrier for it.
func WaitBeforeSpawn() {
	var wg sync.WaitGroup
	wg.Wait()
	go func() {
		defer wg.Done()
		shared++
	}()
}

// crew stores worker bodies ahead of time.
type crew struct {
	serve []func()
	plain []func()
	exit  sync.WaitGroup
}

func work() { shared++ }

// build assigns serve one literal that skips Done and plain a named
// function, which cannot be seen to signal the join.
func (c *crew) build() {
	c.serve = make([]func(), 2)
	c.serve[0] = func() {
		defer c.exit.Done()
		shared++
	}
	c.serve[1] = func() { shared++ }
	c.plain = []func(){work}
}

// Unjoined starts a stored body that signals Done but never waits on it.
func (c *crew) Unjoined() {
	c.exit.Add(1)
	go c.serve[0]()
}

// Joined waits, but one of serve's bodies never signals Done and plain's
// are named functions: both spawns stay findings.
func (c *crew) Joined() {
	c.exit.Add(2)
	go c.serve[0]()
	go c.plain[0]()
	c.exit.Wait()
}

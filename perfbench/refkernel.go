package main

import (
	"runtime"
	"time"
)

// refKernel is a fixed piece of work the benchmark times between
// operations to gauge how fast the host runs at that moment. Other
// tenants of a shared host change its speed by tens of percent from one
// minute to the next, and the workloads slow down with it; dividing an
// operation's host time by the kernel's time, measured in the same
// process within milliseconds of it, removes most of that drift. The
// kernel does what dominates the simulator: it allocates a few thousand
// small heap objects, links them in a shuffled order, and walks them while
// updating a map. Its allocation is the same on every call, so the
// benchmark subtracts it from alloc_mb exactly. Its code is part of the
// benchmark and stays fixed across changes to the program.
type refKernel struct {
	x          uint64
	sink       uint64
	allocBytes uint64 // allocated per call
}

type refNode struct {
	next *refNode
	v    uint64
}

const (
	refNodes = 2048
	refKeys  = 1024
	// refNominalNs is the kernel's median time on the host the bounds
	// were set on; normalized times are host times scaled to that speed.
	refNominalNs = 500_000
	// refEveryNs is how much operation time passes between two samples.
	refEveryNs = 10_000_000
	refMinPass = 5 // samples per pass at least
)

func newRefKernel() *refKernel {
	k := &refKernel{x: 88172645463325252}
	k.run() // warm up
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	const calls = 16
	for i := 0; i < calls; i++ {
		k.run()
	}
	runtime.ReadMemStats(&ms)
	k.allocBytes = (ms.TotalAlloc - before) / calls
	return k
}

// run does the work once and returns its host time in nanoseconds.
func (k *refKernel) run() int64 {
	t0 := time.Now()
	nodes := make([]*refNode, refNodes)
	for i := range nodes {
		nodes[i] = &refNode{v: uint64(i)}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		k.x ^= k.x << 13
		k.x ^= k.x >> 7
		k.x ^= k.x << 17
		j := int(k.x % uint64(i+1))
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, n := range nodes {
		n.next = nodes[(i+1)%len(nodes)]
	}
	m := make(map[uint64]uint64, refNodes)
	p := nodes[0]
	var s uint64
	for step := 0; step < 8*refNodes; step++ {
		s += p.v
		m[p.v%refKeys] += s
		p = p.next
	}
	k.sink += s + uint64(len(m))
	return int64(time.Since(t0))
}

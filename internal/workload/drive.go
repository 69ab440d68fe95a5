package workload

import (
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
)

// Drive runs one open-loop measurement on a flit network: for cycles
// cycles it injects a 1-word packet per arrival gen offers and ticks once,
// then drains what is in flight (so latencies are complete) and empties
// every receive queue. A refused injection is part of the measurement:
// offered load need not equal accepted load. Drive reports whether the
// network drained within 200 000 cycles; if it did not, the stats
// cover only the packets delivered so far.
func Drive(net *flitnet.Net, gen *Generator, cycles int) (drained bool) {
	for c := 0; c < cycles; c++ {
		for _, a := range gen.Cycle() {
			_ = net.Inject(network.Packet{
				Src: a.Src, Dst: a.Dst,
				Data: []network.Word{network.Word(c)},
			})
		}
		net.Tick(1)
	}
	drained = net.TickUntilQuiet(200000)
	for node := 0; node < net.Nodes(); node++ {
		for {
			if _, ok := net.TryRecv(node); !ok {
				break
			}
		}
	}
	return drained
}

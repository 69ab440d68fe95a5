package experiments

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// The four protocols RunProtocol runs, in the paper's order.
var hostProtocols = []string{"finite", "indefinite", "finite-cr", "indefinite-cr"}

// transferSetupAllocs holds each protocol's heap allocations for one
// 1-word transfer on a fresh 2-node machine: the substrate, the machine
// with its nodes, gauges and NIs, both endpoints, the protocol services,
// the transfer and the merged report. Lower it when a change allocates
// less; a rise is a regression of the per-transfer fixed cost.
var transferSetupAllocs = map[string]float64{
	"finite":        49,
	"indefinite":    47,
	"finite-cr":     39,
	"indefinite-cr": 34,
}

// BenchmarkTransferSetup measures a transfer's fixed host cost: building a
// 2-node machine, its endpoints and the protocol, then running a 1-word
// transfer to completion.
func BenchmarkTransferSetup(b *testing.B) {
	for _, proto := range hostProtocols {
		b.Run(proto, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunProtocol(proto, 1, 4, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestTransferSetupAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters allocate")
	}
	for _, proto := range hostProtocols {
		got := testing.AllocsPerRun(50, func() {
			if _, err := RunProtocol(proto, 1, 4, 1); err != nil {
				t.Fatal(err)
			}
		})
		if want := transferSetupAllocs[proto]; got > want {
			t.Errorf("%s: %.0f allocations per 1-word transfer, want <= %.0f", proto, got, want)
		}
	}
}

// Message sizes of the host Figure 8, in packets. Small sizes pin down the
// fixed term: the fitted a moves by b·mean(packets) for an error in b.
var hostPackets = []int{1, 2, 4, 8, 16, 32}

// BenchmarkRunProtocol is Figure 8 for the host: the median wall time of
// one RunProtocol transfer per (protocol, packet size, message size).
// After each (protocol, packet size) it logs the least-squares fit of host
// ns/transfer = a + b·packets, the host's fixed and per-packet terms; the
// testing package prints a parent benchmark's log only with -v:
//
//	go test -run '^$' -bench RunProtocol -cpu 1 -v ./internal/experiments
func BenchmarkRunProtocol(b *testing.B) {
	for _, proto := range hostProtocols {
		b.Run(proto, func(b *testing.B) {
			for _, pkt := range []int{4, 8, 16} {
				b.Run(fmt.Sprintf("p%d", pkt), func(b *testing.B) {
					var packets, ns []float64
					for _, n := range hostPackets {
						words := n * pkt
						var p50 float64
						b.Run(fmt.Sprintf("w%d", words), func(b *testing.B) {
							took := make([]time.Duration, b.N)
							b.ResetTimer()
							for i := range took {
								t0 := time.Now()
								if _, err := RunProtocol(proto, words, pkt, 1); err != nil {
									b.Fatal(err)
								}
								took[i] = time.Since(t0)
							}
							// The median transfer: a collection cycle or
							// another tenant lands on a few transfers and
							// would move the mean. The last call runs the
							// final b.N.
							slices.Sort(took)
							p50 = float64(took[len(took)/2])
							b.ReportMetric(p50, "p50-ns/transfer")
						})
						packets = append(packets, float64(n))
						ns = append(ns, p50)
					}
					fixed, perPacket, err := fitLine(packets, ns)
					if err != nil {
						b.Fatal(err)
					}
					b.Logf("fit %s p%d: a = %.0f ns/transfer, b = %.1f ns/packet", proto, pkt, fixed, perPacket)
				})
			}
		})
	}
}

// fitLine returns the least-squares line y = a + b·x through the points,
// from the normal equations: b = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²) and
// a = (Σy − bΣx) / n. It needs at least two distinct x values.
func fitLine(x, y []float64) (a, b float64, err error) {
	if len(x) != len(y) {
		return 0, 0, fmt.Errorf("fitLine: %d x values, %d y values", len(x), len(y))
	}
	if !slices.ContainsFunc(x, func(v float64) bool { return v != x[0] }) {
		return 0, 0, errors.New("fitLine: fewer than two distinct x values")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	b = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	return (sy - b*sx) / n, b, nil
}

// The fit on points a person can check by hand: (1,12), (2,15), (4,21)
// lie on y = 9 + 3x.
func TestFitLine(t *testing.T) {
	a, b, err := fitLine([]float64{1, 2, 4}, []float64{12, 15, 21})
	if err != nil || a != 9 || b != 3 {
		t.Errorf("fitLine = %v, %v, %v; want 9, 3, nil", a, b, err)
	}
	// Off-line points: (0,1), (1,1), (2,4) give n 3, Σx 3, Σy 6, Σx² 5
	// and Σxy 9, so b = (27 − 18) / (15 − 9) = 1.5 and
	// a = (6 − 4.5) / 3 = 0.5.
	a, b, err = fitLine([]float64{0, 1, 2}, []float64{1, 1, 4})
	if err != nil || a != 0.5 || b != 1.5 {
		t.Errorf("fitLine = %v, %v, %v; want 0.5, 1.5, nil", a, b, err)
	}
	for _, x := range [][]float64{{3, 3, 3}, {5}, {}} {
		y := make([]float64, len(x))
		if _, _, err := fitLine(x, y); err == nil {
			t.Errorf("fitLine(%v) accepted input with fewer than two distinct x", x)
		}
	}
	if _, _, err := fitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("fitLine accepted x and y of different lengths")
	}
}

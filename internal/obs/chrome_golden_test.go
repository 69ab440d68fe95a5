package obs_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the Chrome-trace goldens under testdata")

// crFlitPointHub runs a 4-ary 2-tree CR point at saturating uniform load
// for the given number of cycles with a FlitScope hub attached, drains it,
// and returns the hub. CR at load 0.3 covers every flit event and span:
// queueing, inject backpressure, kills, retries and delivery.
func crFlitPointHub(tb testing.TB, cycles int) *obs.Hub {
	tb.Helper()
	topo, err := topology.NewFatTree(4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := flitnet.New(flitnet.Config{
		Topology: topo, Mode: flitnet.CR, BufferFlits: 3, InjectQueue: 8, VirtualChannels: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	h := obs.NewHub()
	net.SetFlitObserver(h.FlitScope())
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), 0.3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	word := []network.Word{0}
	for c := 0; c < cycles; c++ {
		for _, a := range gen.Cycle() {
			err := net.Inject(network.Packet{Src: a.Src, Dst: a.Dst, Data: word})
			if err != nil && !errors.Is(err, network.ErrBackpressure) {
				tb.Fatal(err)
			}
		}
		net.Tick(1)
	}
	if !net.TickUntilQuiet(200000) {
		tb.Fatal("network never drained")
	}
	for node := 0; node < net.Nodes(); node++ {
		for {
			if _, ok := net.TryRecv(node); !ok {
				break
			}
		}
	}
	return h
}

// TestChromeTraceGolden pins the Chrome trace-event export byte for byte
// on a flit-level point and on an observed machine run: a finite-sequence
// transfer over a one-packet CM-5 buffer, so node events, rule spans,
// builder spans and network backpressure anomalies all appear.
func TestChromeTraceGolden(t *testing.T) {
	cases := []struct {
		name string
		hub  func(t *testing.T) *obs.Hub
	}{
		{"chrome-fattree-cr-500.json.gz", func(t *testing.T) *obs.Hub { return crFlitPointHub(t, 500) }},
		{"chrome-machine-finite.json.gz", func(t *testing.T) *obs.Hub {
			m := twoNodeCM5(t, 1)
			h := obs.NewHub()
			m.AttachObserver(h)
			runFinite(t, m, 32)
			return h
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := c.hub(t)
			if h.Trace.Len() == 0 {
				t.Fatal("nothing recorded")
			}
			var b bytes.Buffer
			if err := h.Trace.WriteChromeTrace(&b); err != nil {
				t.Fatal(err)
			}
			checkGzipGolden(t, c.name, b.Bytes())
		})
	}
}

// checkGzipGolden compares got with the gzip-stored testdata/name on the
// uncompressed bytes, rewriting the file under -update.
func checkGzipGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		var b bytes.Buffer
		zw := gzip.NewWriter(&b)
		zw.Write(got)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (%d bytes, want %d); rerun with -update only if the change is intended", name, len(got), len(want))
	}
}

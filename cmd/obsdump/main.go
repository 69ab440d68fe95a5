// Command obsdump runs the paper's transfer scenarios with the runtime
// observability layer attached and dumps what it recorded: a metrics
// registry (Prometheus text or JSON) and a Chrome trace-event JSON timeline
// loadable in chrome://tracing or https://ui.perfetto.dev, with every event
// attributed to the paper's Feature axes.
//
// Usage:
//
//	obsdump                          # all four scenarios, metrics to stdout
//	obsdump -scenario cm5-finite     # one scenario
//	obsdump -words 256               # transfer size
//	obsdump -metrics-format json     # JSON instead of Prometheus text
//	obsdump -metrics-out metrics.txt # write metrics to a file
//	obsdump -trace-out trace.json    # write the Chrome trace ("-" = stdout)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"msglayer/internal/cli"
	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/crmsg"
	"msglayer/internal/machine"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/protocols"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// maxRounds bounds every scenario's pump loop.
const maxRounds = 1_000_000

// scenario is one observable run.
type scenario struct {
	name string
	desc string
	run  func(h *obs.Hub, words int) error
}

// scenarios in fixed order, for -scenario all determinism.
var scenarios = []scenario{
	{"cm5-finite", "finite-sequence protocol on the CM-5 substrate", runCM5Finite},
	{"cm5-stream", "indefinite-sequence protocol on the CM-5 substrate", runCM5Stream},
	{"cr-finite", "finite-sequence protocol on the CR substrate", runCRFinite},
	{"cr-stream", "indefinite-sequence protocol on the CR substrate", runCRStream},
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	scen := fs.String("scenario", "all", "scenario to run: all, "+strings.Join(names, ", "))
	words := fs.Int("words", 64, "transfer size in words")
	metricsFormat := fs.String("metrics-format", "prom", "metrics dump format: prom or json")
	metricsOut := fs.String("metrics-out", "-", "metrics destination file (\"-\" = stdout)")
	o := cli.NewFlags(fs)
	o.TraceFlag(" of the runs")
	o.ServeFlag("and keep serving after the runs until interrupted")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *words < 1 {
		fmt.Fprintln(stderr, "obsdump: -words must be positive")
		return 2
	}
	if *metricsFormat != "prom" && *metricsFormat != "json" {
		fmt.Fprintln(stderr, "obsdump: -metrics-format must be prom or json")
		return 2
	}

	var selected []scenario
	for _, s := range scenarios {
		if *scen == "all" || *scen == s.name {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "obsdump: unknown scenario %q (want all, %s)\n", *scen, strings.Join(names, ", "))
		return 2
	}

	hub := obs.NewHub()
	srv, err := cli.Serve("obsdump", o.Serve, hub, nil, nil, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "obsdump:", err)
		return 1
	}
	defer srv.Close()
	for _, s := range selected {
		srv.Sync(func() { err = s.run(hub, *words) }) // scenarios mutate the hub; serialize vs handlers
		if err != nil {
			fmt.Fprintf(stderr, "obsdump: %s: %v\n", s.name, err)
			return 1
		}
	}

	err = cli.WriteTo(*metricsOut, stdout, func(w io.Writer) error {
		if *metricsFormat == "json" {
			data, err := hub.Metrics.MetricsJSON()
			if err != nil {
				return err
			}
			_, err = w.Write(append(data, '\n'))
			return err
		}
		return hub.Metrics.WritePrometheus(w)
	})
	if err != nil {
		fmt.Fprintln(stderr, "obsdump:", err)
		return 1
	}
	if o.TraceOut != "" {
		if err := cli.WriteTo(o.TraceOut, stdout, hub.Trace.WriteChromeTrace); err != nil {
			fmt.Fprintln(stderr, "obsdump:", err)
			return 1
		}
	}
	cli.WarnDropped(stderr, "obsdump", hub, cli.Truncated)
	srv.Hold("runs done")
	return 0
}

// payload builds a deterministic test payload.
func payload(words int) []network.Word {
	data := make([]network.Word, words)
	for i := range data {
		data[i] = network.Word(i*3 + 1)
	}
	return data
}

// observedMachine assembles a two-node machine over the substrate with the
// hub attached.
func observedMachine(net network.Network, h *obs.Hub) (*machine.Machine, error) {
	sched, err := cost.NewPaperSchedule(net.PacketWords())
	if err != nil {
		return nil, err
	}
	m, err := machine.New(net, sched)
	if err != nil {
		return nil, err
	}
	m.Node(0).SetRole(cost.Source)
	m.Node(1).SetRole(cost.Destination)
	m.AttachObserver(h)
	return m, nil
}

// runCM5Finite runs one finite-sequence CMAM transfer.
func runCM5Finite(h *obs.Hub, words int) error {
	net, err := network.NewCM5Net(network.CM5Config{Nodes: 2})
	if err != nil {
		return err
	}
	m, err := observedMachine(net, h)
	if err != nil {
		return err
	}
	src := protocols.NewFinite(cmam.NewEndpoint(m.Node(0)))
	dst := protocols.NewFinite(cmam.NewEndpoint(m.Node(1)))
	tr, err := src.Start(1, payload(words))
	if err != nil {
		return err
	}
	return m.Run(maxRounds,
		machine.StepFunc(func() (bool, error) { return tr.Done(), src.Pump() }),
		machine.StepFunc(func() (bool, error) { return tr.Done(), dst.Pump() }),
	)
}

// runCM5Stream runs an indefinite-sequence CMAM stream under the paper's
// pair-swap reordering.
func runCM5Stream(h *obs.Hub, words int) error {
	net, err := network.NewCM5Net(network.CM5Config{Nodes: 2, Reorder: network.PairSwap()})
	if err != nil {
		return err
	}
	m, err := observedMachine(net, h)
	if err != nil {
		return err
	}
	src := protocols.MustNewStream(cmam.NewEndpoint(m.Node(0)), protocols.StreamConfig{})
	dst := protocols.MustNewStream(cmam.NewEndpoint(m.Node(1)), protocols.StreamConfig{})
	conn := src.Open(1, 0)
	data := payload(words)
	pw := net.PacketWords()
	for off := 0; off < len(data); off += pw {
		end := off + pw
		if end > len(data) {
			end = len(data)
		}
		if err := conn.Send(data[off:end]...); err != nil {
			return err
		}
	}
	return m.Run(maxRounds,
		machine.StepFunc(func() (bool, error) { return conn.Idle(), src.Pump() }),
		machine.StepFunc(func() (bool, error) { return conn.Idle(), dst.Pump() }),
	)
}

// runCRFinite runs one finite transfer over the CR substrate.
func runCRFinite(h *obs.Hub, words int) error {
	net, err := network.NewCRNet(network.CRConfig{Nodes: 2})
	if err != nil {
		return err
	}
	m, err := observedMachine(net, h)
	if err != nil {
		return err
	}
	src, err := crmsg.NewFinite(cmam.NewEndpoint(m.Node(0)), net, crmsg.FiniteConfig{})
	if err != nil {
		return err
	}
	received := false
	dst, err := crmsg.NewFinite(cmam.NewEndpoint(m.Node(1)), net, crmsg.FiniteConfig{
		OnReceive: func(int, []network.Word) { received = true },
	})
	if err != nil {
		return err
	}
	tr, err := src.Start(1, payload(words))
	if err != nil {
		return err
	}
	return m.Run(maxRounds,
		machine.StepFunc(func() (bool, error) { return tr.Done() && received, src.Pump() }),
		machine.StepFunc(func() (bool, error) { return tr.Done() && received, dst.Pump() }),
	)
}

// runCRStream runs an indefinite stream over the CR substrate.
func runCRStream(h *obs.Hub, words int) error {
	net, err := network.NewCRNet(network.CRConfig{Nodes: 2})
	if err != nil {
		return err
	}
	m, err := observedMachine(net, h)
	if err != nil {
		return err
	}
	delivered := 0
	src := crmsg.MustNewStream(cmam.NewEndpoint(m.Node(0)), crmsg.StreamConfig{})
	dst := crmsg.MustNewStream(cmam.NewEndpoint(m.Node(1)), crmsg.StreamConfig{
		OnDeliver: func(int, uint8, []network.Word) { delivered++ },
	})
	conn := src.Open(1, 0)
	data := payload(words)
	pw := net.PacketWords()
	want := 0
	for off := 0; off < len(data); off += pw {
		end := off + pw
		if end > len(data) {
			end = len(data)
		}
		if err := conn.Send(data[off:end]...); err != nil {
			return err
		}
		want++
	}
	return m.Run(maxRounds,
		machine.StepFunc(func() (bool, error) { return delivered == want, src.Pump() }),
		machine.StepFunc(func() (bool, error) { return delivered == want, dst.Pump() }),
	)
}

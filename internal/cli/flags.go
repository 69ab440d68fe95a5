package cli

import (
	"errors"
	"flag"

	"msglayer/internal/obs/monitor"
)

// Flags holds the shared observability flags. A command registers only the
// groups it offers; the fields of the others keep their zero values.
type Flags struct {
	Metrics          string // -metrics: registry dump destination
	TraceOut         string // -trace-out: Chrome trace destination
	TimelineOut      string // -timeline-out: timeline destination
	TimelineInterval int    // -timeline-interval: window width
	SLO              string // -slo: rules file or "canonical"
	SLOOut           string // -slo-out: alert report destination
	Serve            string // -serve: live observability address
	CPUProfile       string // -cpuprofile: pprof CPU profile destination
	MemProfile       string // -memprofile: pprof allocation profile destination

	fs *flag.FlagSet
}

// NewFlags returns an empty flag group set registering into fs.
func NewFlags(fs *flag.FlagSet) *Flags { return &Flags{fs: fs} }

// MetricsFlag registers -metrics; what names the dumped metrics.
func (f *Flags) MetricsFlag(what string) {
	f.fs.StringVar(&f.Metrics, "metrics", "",
		"dump "+what+` to a file ("-" = stdout; a .json suffix selects JSON, otherwise Prometheus text)`)
}

// TraceFlag registers -trace-out; what qualifies the trace ("of the runs").
func (f *Flags) TraceFlag(what string) {
	f.fs.StringVar(&f.TraceOut, "trace-out", "", "dump a Chrome trace-event JSON"+what+` ("-" = stdout)`)
}

// TimelineFlags registers -timeline-out and -timeline-interval; what says
// what is sampled and written, unit names the clock the windows run on.
func (f *Flags) TimelineFlags(what string, interval int, unit string) {
	f.fs.StringVar(&f.TimelineOut, "timeline-out", "",
		what+` ("-" = stdout; a .csv suffix selects CSV, otherwise JSON)`)
	f.fs.IntVar(&f.TimelineInterval, "timeline-interval", interval, "timeline window width in "+unit)
}

// SLOFlags registers -slo and -slo-out; what says what the rules are
// evaluated against.
func (f *Flags) SLOFlags(what string) {
	f.fs.StringVar(&f.SLO, "slo", "",
		`evaluate SLO rules (JSON file, or "canonical") `+what+" and exit 3 if any alert fired")
	f.fs.StringVar(&f.SLOOut, "slo-out", "-",
		`SLO alert report destination ("-" = stdout; .json/.csv suffixes select the format, otherwise text)`)
}

// ServeFlag registers -serve; when says how long the server stays up.
func (f *Flags) ServeFlag(when string) {
	f.fs.StringVar(&f.Serve, "serve", "",
		"serve live observability on this address (/metrics, /snapshot, /trace, /debug/pprof/) "+when)
}

// ProfileFlags registers -cpuprofile and -memprofile; of names what the
// CPU profile covers.
func (f *Flags) ProfileFlags(of string) {
	f.fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of "+of+" to this file")
	f.fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof allocation profile to this file at exit")
}

// Check validates the registered flags after parsing. Its errors are usage
// errors: the command prints them and exits 2, the code fs.Parse uses.
func (f *Flags) Check() error {
	// Zero-width windows can never close.
	if f.fs.Lookup("timeline-interval") != nil && f.TimelineInterval < 1 {
		return errors.New("-timeline-interval must be >= 1")
	}
	return nil
}

// Rules loads the -slo rule set, or returns nil when -slo is unset. Load
// it before running, so a bad rules file fails fast.
func (f *Flags) Rules() (*monitor.RuleSet, error) {
	if f.SLO == "" {
		return nil, nil
	}
	return monitor.LoadRules(f.SLO)
}

// StartProfiles starts the -cpuprofile profile and returns the function
// that writes -memprofile and finalizes the CPU profile; call it once, at
// exit. Unset profiles cost nothing, and a profile that cannot be written
// is reported and removed, never left truncated.
func (f *Flags) StartProfiles() (stop func() error, err error) {
	stopCPU := func() error { return nil }
	if f.CPUProfile != "" {
		if stopCPU, err = startCPU(f.CPUProfile); err != nil {
			return nil, err
		}
	}
	return func() error {
		var heapErr error
		if f.MemProfile != "" {
			heapErr = writeHeap(f.MemProfile)
		}
		return errors.Join(heapErr, stopCPU())
	}, nil
}

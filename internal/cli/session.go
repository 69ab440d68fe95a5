package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/monitor/blame"
	"msglayer/internal/obs/serve"
	"msglayer/internal/obs/timeline"
)

// Server is the -serve lifecycle: live endpoints while the command runs,
// SIGINT to stop, and a bounded shutdown. A nil *Server stands for "not
// serving": Sync runs inline, Hold and Close do nothing, and Context is
// never cancelled, so commands need no branches.
type Server struct {
	name   string
	stderr io.Writer
	srv    *serve.Server
	ctx    context.Context
	cancel context.CancelFunc
}

// Serve starts serving hub, plus the optional sampler and monitor, on
// addr, and from then on SIGINT cancels the server's Context. An empty
// addr returns a nil Server. Pair every non-nil Server with a deferred
// Close.
func Serve(name, addr string, hub *obs.Hub, tl *timeline.Sampler, mon *monitor.Monitor, stderr io.Writer) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv := serve.New(hub)
	srv.SetTimeline(tl)
	srv.SetMonitor(mon)
	if err := srv.Start(addr); err != nil {
		return nil, err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	fmt.Fprintf(stderr, "%s: observability on http://%s (SIGINT to stop)\n", name, srv.Addr())
	return &Server{name: name, stderr: stderr, srv: srv, ctx: ctx, cancel: cancel}, nil
}

// Context is cancelled by SIGINT while serving.
func (s *Server) Context() context.Context {
	if s == nil {
		return context.Background()
	}
	return s.ctx
}

// Sync runs fn under the server's lock, serialized against the handlers;
// every hub mutation made while serving goes through it.
func (s *Server) Sync(fn func()) {
	if s == nil {
		fn()
		return
	}
	s.srv.Sync(fn)
}

// Hold keeps the final state inspectable until SIGINT, unless SIGINT
// already came; done names the finished work ("runs done").
func (s *Server) Hold(done string) {
	if s == nil || s.ctx.Err() != nil {
		return
	}
	fmt.Fprintf(s.stderr, "%s: %s, still serving (SIGINT to stop)\n", s.name, done)
	<-s.ctx.Done()
}

// Close shuts the server down, waiting at most 5 s for open requests, and
// releases the SIGINT handler.
func (s *Server) Close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(s.stderr, "%s: shutdown: %v\n", s.name, err)
	}
	s.cancel()
}

// SessionConfig selects what a Session observes.
type SessionConfig struct {
	// Timeline samples the hub's registry into windows on the round clock.
	Timeline bool
	// Interval is the window width in rounds (0 = timeline.DefaultInterval).
	Interval uint64
	// Rules, when set, evaluate live as windows close; they imply Timeline.
	Rules *monitor.RuleSet
}

// Session is one observed run on the machine-round clock: the hub the run
// records into, a timeline sampler riding the hub's round ticks, and a live
// SLO monitor fed by the sampler. The monitor takes the same path a
// recorded-timeline replay takes, so live and replayed reports are
// byte-identical.
type Session struct {
	Hub     *obs.Hub
	Sampler *timeline.Sampler // nil unless a timeline or rules were asked for
	Monitor *monitor.Monitor  // nil unless rules were given
}

// NewSession builds a session over a fresh hub. The caller attaches
// Session.Hub to whatever it runs (experiments.SetObserver,
// trace.SetObserver).
func NewSession(cfg SessionConfig) (*Session, error) {
	s := &Session{Hub: obs.NewHub()}
	if cfg.Timeline || cfg.Rules != nil {
		s.Sampler = timeline.New(s.Hub.Metrics, timeline.Config{Interval: cfg.Interval})
		s.Hub.SetTickListener(s.Sampler.Advance)
	}
	if cfg.Rules != nil {
		m, err := newMonitor(cfg.Rules, false)
		if err != nil {
			return nil, err
		}
		m.Attach(s.Sampler)
		s.Monitor = m
	}
	return s, nil
}

// Finish closes the session's timeline at the hub's round (see
// timeline.Sampler.Finish) and returns it; nil without a sampler. The
// window deltas must sum exactly to the final registry totals, or Finish
// fails: a sampler that cannot account for itself is a bug, not a report.
func (s *Session) Finish() (*timeline.Timeline, error) {
	if s.Sampler == nil {
		return nil, nil
	}
	tl, err := s.Sampler.Finish(s.Hub.Round())
	if err != nil {
		return nil, fmt.Errorf("timeline reconciliation: %w", err)
	}
	return tl, nil
}

// newMonitor builds a monitor over rules with the Role×Feature×Category
// blame on opened alerts, unless noBlame.
func newMonitor(rules *monitor.RuleSet, noBlame bool) (*monitor.Monitor, error) {
	m, err := monitor.New(rules)
	if err != nil {
		return nil, err
	}
	if !noBlame {
		m.SetBlamer(blame.Compute)
	}
	return m, nil
}

// Replay evaluates rules over a recorded timeline, the same path live
// evaluation takes, and returns the report under label.
func Replay(rules *monitor.RuleSet, noBlame bool, label string, tl *timeline.Timeline) (*monitor.Report, error) {
	m, err := newMonitor(rules, noBlame)
	if err != nil {
		return nil, err
	}
	if err := m.Replay(tl); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	return m.Snapshot(label), nil
}

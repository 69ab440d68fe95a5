// Command obsmon evaluates declarative SLO rules against a recorded
// timeline artifact (a single timeline or a netload timeline grid) and
// reports alert incidents with exact window provenance. Replay takes the
// path msgbench's live -slo evaluation takes, so the reports are
// byte-identical for the same windows.
//
// Usage:
//
//	obsmon -rules rules.json -timeline tl.json   # replay a recorded timeline
//	obsmon -rules canonical -timeline grid.json  # built-in rules, every grid point
//	obsmon -format json -o report.json           # text (default), json, or csv
//	obsmon -fail-on any                          # exit 3 on any incident (default: open)
//
// Exit codes: 0 compliant, 1 runtime error, 2 flag error, 3 SLO violation
// per -fail-on.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"msglayer/internal/cli"
	"msglayer/internal/obs/diff"
	"msglayer/internal/obs/monitor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesPath := fs.String("rules", "canonical",
		"SLO rules file (JSON), or \"canonical\" for the built-in rule set")
	timelinePath := fs.String("timeline", "",
		"recorded timeline artifact to replay (single timeline or netload grid JSON); required")
	format := fs.String("format", "text", "report format: text, json, or csv")
	out := fs.String("o", "-", "report destination file (\"-\" = stdout)")
	failOn := fs.String("fail-on", "open",
		"exit 3 when: open (an alert is still firing), any (any incident fired), none (never)")
	noBlame := fs.Bool("no-blame", false, "skip the Role×Feature×Category blame snippet on opened alerts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "obsmon: -format must be text, json, or csv, got %q\n", *format)
		return 2
	}
	switch *failOn {
	case "open", "any", "none":
	default:
		fmt.Fprintf(stderr, "obsmon: -fail-on must be open, any, or none, got %q\n", *failOn)
		return 2
	}
	if *timelinePath == "" {
		fmt.Fprintln(stderr, "obsmon: -timeline is required")
		return 2
	}

	rules, err := monitor.LoadRules(*rulesPath)
	if err != nil {
		fmt.Fprintln(stderr, "obsmon:", err)
		return 1
	}

	reports, err := replayArtifact(*timelinePath, rules, *noBlame)
	if err != nil {
		fmt.Fprintln(stderr, "obsmon:", err)
		return 1
	}

	if err := cli.WriteReports(*out, stdout, *format, reports); err != nil {
		fmt.Fprintln(stderr, "obsmon:", err)
		return 1
	}

	violated := false
	for _, rep := range reports {
		switch *failOn {
		case "open":
			violated = violated || rep.Open > 0
		case "any":
			violated = violated || len(rep.Incidents) > 0
		}
	}
	if violated {
		fmt.Fprintf(stderr, "obsmon: SLO violated (-fail-on %s)\n", *failOn)
		return 3
	}
	return 0
}

// replayArtifact evaluates the rules against a recorded timeline artifact:
// one report for a single timeline, one per point (in sorted key order)
// for a netload grid.
func replayArtifact(path string, rules *monitor.RuleSet, noBlame bool) ([]*monitor.Report, error) {
	art, err := diff.LoadArtifact(path)
	if err != nil {
		return nil, err
	}
	switch art.Kind {
	case "timeline":
		rep, err := cli.Replay(rules, noBlame, path, art.Timeline)
		if err != nil {
			return nil, err
		}
		return []*monitor.Report{rep}, nil
	case "timeline-grid":
		keys := make([]string, 0, len(art.Grid))
		for k := range art.Grid {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		reports := make([]*monitor.Report, 0, len(keys))
		for _, k := range keys {
			rep, err := cli.Replay(rules, noBlame, k, art.Grid[k])
			if err != nil {
				return nil, err
			}
			reports = append(reports, rep)
		}
		return reports, nil
	default:
		return nil, fmt.Errorf("%s: artifact kind %q carries no timeline (want a timeline or netload timeline grid)", path, art.Kind)
	}
}

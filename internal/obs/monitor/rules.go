package monitor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Kind selects what a rule evaluates over each closed window.
type Kind string

const (
	// KindQuantile bounds a windowed histogram quantile: the rule violates
	// when any matched histogram's windowed quantile exceeds Max.
	KindQuantile Kind = "quantile"
	// KindRate bounds the summed rate of matched counters, in integer
	// events per thousand cycles: above Max or below Min violates. A Min
	// bound makes idle windows violate by design (throughput floor);
	// ForWindows absorbs warmup and drain.
	KindRate Kind = "rate"
	// KindUtilization bounds each matched counter individually at a
	// permille of the window's cycles (a link moving <= 1 flit/cycle yields
	// <= 1000); the worst series is the incident's provenance.
	KindUtilization Kind = "utilization"
	// KindBurn is a multi-window burn-rate rule over an error ratio
	// num/den: it violates when the ratio consumes the error budget at
	// ShortFactor x over the current window AND at LongFactor x over the
	// trailing LongWindows windows (both inclusive of the current one).
	// All arithmetic is integer cross-multiplication, exact at den = 0.
	KindBurn Kind = "burn"
)

// Match selects series by their rendered key string
// (`name{node="0",proto="x",event="y"}`): the key must start with Prefix
// and contain every Contains element. Matching is allocation-free.
type Match struct {
	Prefix   string   `json:"prefix,omitempty"`
	Contains []string `json:"contains,omitempty"`
}

// empty reports whether the match selects nothing.
func (m Match) empty() bool { return m.Prefix == "" && len(m.Contains) == 0 }

// matches tests one rendered series key. An empty match never matches, so
// an unset Num/Den on a non-burn rule stays inert.
func (m Match) matches(key string) bool {
	if m.empty() {
		return false
	}
	if !strings.HasPrefix(key, m.Prefix) {
		return false
	}
	for _, c := range m.Contains {
		if !strings.Contains(key, c) {
			return false
		}
	}
	return true
}

// String renders the match for reports.
func (m Match) String() string {
	if m.empty() {
		return "<none>"
	}
	s := m.Prefix + "*"
	for _, c := range m.Contains {
		s += "&" + c
	}
	return s
}

// Rule is one declarative SLO rule. Fields beyond the shared ones apply to
// the kinds documented on them; validation rejects mixed-up specs.
type Rule struct {
	Name     string `json:"name"`
	Kind     Kind   `json:"kind"`
	Severity string `json:"severity,omitempty"` // free-form; default "warn"
	// Match selects the series quantile/rate/utilization rules evaluate.
	Match Match `json:"match,omitempty"`
	// Quantile (quantile rules) is one of p50, p90, p99, p999; default
	// p99. Replaying a p999 rule needs a timeline recorded with the
	// extended quantile list; live evaluation always works.
	Quantile string `json:"quantile,omitempty"`
	// Max bounds the quantile value (quantile) or the rate per thousand
	// cycles (rate). Pointer so 0 is expressible.
	Max *uint64 `json:"max,omitempty"`
	// Min is the rate floor per thousand cycles (rate rules only).
	Min *uint64 `json:"min,omitempty"`
	// MaxPermille is the per-series utilization ceiling (utilization).
	MaxPermille uint64 `json:"max_permille,omitempty"`
	// Num/Den select the error and total counters of a burn rule.
	Num Match `json:"num,omitempty"`
	Den Match `json:"den,omitempty"`
	// BudgetPermille is the allowed error ratio in permille (burn).
	BudgetPermille uint64 `json:"budget_permille,omitempty"`
	// ShortFactor/LongFactor are the burn multipliers (defaults 10 and 2);
	// LongWindows is the trailing-window count (default 12).
	ShortFactor uint64 `json:"short_factor,omitempty"`
	LongFactor  uint64 `json:"long_factor,omitempty"`
	LongWindows int    `json:"long_windows,omitempty"`
	// ForWindows opens an alert only after that many consecutive violating
	// windows (default 1); ClearWindows closes it only after that many
	// consecutive clean windows (default 1). Any clean window resets the
	// violation streak and vice versa — classic hysteresis.
	ForWindows   int `json:"for_windows,omitempty"`
	ClearWindows int `json:"clear_windows,omitempty"`
}

// RuleSet is the root of a rules document.
type RuleSet struct {
	Rules []Rule `json:"rules"`
}

// quantileQ maps the rule quantile names to their numeric rank and the
// replay accessor order. The set is fixed to what exported timelines can
// carry, so live and replay evaluation agree by construction.
var quantileQ = map[string]float64{
	"p50": 0.50, "p90": 0.90, "p99": 0.99, "p999": 0.999,
}

// validate checks the set and reports the first problem.
func (rs *RuleSet) validate() error {
	if len(rs.Rules) == 0 {
		return fmt.Errorf("monitor: rule set has no rules")
	}
	seen := make(map[string]bool, len(rs.Rules))
	for i := range rs.Rules {
		r := &rs.Rules[i]
		where := fmt.Sprintf("monitor: rule %d (%q)", i, r.Name)
		if r.Name == "" {
			return fmt.Errorf("monitor: rule %d: name is required", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("%s: duplicate name", where)
		}
		seen[r.Name] = true
		if r.ForWindows < 0 || r.ClearWindows < 0 || r.LongWindows < 0 {
			return fmt.Errorf("%s: window counts must be non-negative", where)
		}
		switch r.Kind {
		case KindQuantile:
			if r.Match.empty() {
				return fmt.Errorf("%s: quantile rules need a match", where)
			}
			if r.Quantile != "" {
				if _, ok := quantileQ[r.Quantile]; !ok {
					return fmt.Errorf("%s: unknown quantile %q (want p50, p90, p99, or p999)", where, r.Quantile)
				}
			}
			if r.Max == nil {
				return fmt.Errorf("%s: quantile rules need max", where)
			}
		case KindRate:
			if r.Match.empty() {
				return fmt.Errorf("%s: rate rules need a match", where)
			}
			if r.Max == nil && r.Min == nil {
				return fmt.Errorf("%s: rate rules need max and/or min", where)
			}
		case KindUtilization:
			if r.Match.empty() {
				return fmt.Errorf("%s: utilization rules need a match", where)
			}
			if r.MaxPermille == 0 {
				return fmt.Errorf("%s: utilization rules need max_permille", where)
			}
		case KindBurn:
			if r.Num.empty() || r.Den.empty() {
				return fmt.Errorf("%s: burn rules need num and den matches", where)
			}
			if r.BudgetPermille == 0 {
				return fmt.Errorf("%s: burn rules need budget_permille", where)
			}
		default:
			return fmt.Errorf("%s: unknown kind %q (want quantile, rate, utilization, or burn)", where, r.Kind)
		}
	}
	return nil
}

// ParseRules parses a JSON rules document, {"rules": [...]}. Anything
// else — YAML included — is rejected before decoding, with an error that
// says so.
func ParseRules(data []byte) (*RuleSet, error) {
	raw := bytes.TrimLeft(data, " \t\r\n")
	if len(raw) == 0 || raw[0] != '{' {
		return nil, fmt.Errorf(`monitor: rules must be a JSON object ({"rules": [...]})`)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	rs := &RuleSet{}
	if err := dec.Decode(rs); err != nil {
		return nil, fmt.Errorf("monitor: parse rules: %w", err)
	}
	// Decode stops after the first value; anything but whitespace after
	// the object is a malformed file, not ignorable trailing text.
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("monitor: parse rules: trailing data after the rules object")
	}
	if err := rs.validate(); err != nil {
		return nil, err
	}
	return rs, nil
}

// LoadRules reads and parses a rules file; the name "canonical" resolves
// to the built-in CanonicalRules set.
func LoadRules(path string) (*RuleSet, error) {
	if path == "canonical" {
		return CanonicalRules(), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rs, err := ParseRules(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// CanonicalRules is the built-in deterministic rule set CI and the perfreg
// alert digests evaluate: a delivery-rate floor, a transfer-latency p99
// ceiling, a per-link utilization ceiling, and a backpressure burn-rate
// rule over injections. `-slo canonical` selects it on every CLI.
func CanonicalRules() *RuleSet {
	minDelivered := uint64(1)
	maxLatency := uint64(256)
	return &RuleSet{Rules: []Rule{
		{
			Name: "delivery-floor", Kind: KindRate, Severity: "page",
			Match:      Match{Prefix: "net_delivered_total"},
			Min:        &minDelivered,
			ForWindows: 2, ClearWindows: 2,
		},
		{
			Name: "latency-p99-ceiling", Kind: KindQuantile, Severity: "warn",
			Match:    Match{Prefix: "transfer_latency_rounds"},
			Quantile: "p99", Max: &maxLatency,
		},
		{
			Name: "link-saturation", Kind: KindUtilization, Severity: "warn",
			Match:       Match{Prefix: "flitnet_link_flits_total"},
			MaxPermille: 900, ForWindows: 2,
		},
		{
			Name: "backpressure-burn", Kind: KindBurn, Severity: "page",
			Num:            Match{Prefix: "net_backpressure_total"},
			Den:            Match{Prefix: "net_injected_total"},
			BudgetPermille: 50, ShortFactor: 10, LongFactor: 2,
			LongWindows: 6, ClearWindows: 2,
		},
	}}
}

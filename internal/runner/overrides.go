package runner

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Overrides is the declarative replacement for the old
// `Tweak func(*core.Params)` closure: every runtime tunable a sensitivity
// study sweeps is an optional field, so a job description is a plain
// value with a deterministic digest. A nil field keeps
// core.DefaultParams' value. The JSON encoding is the HTTP API's
// "overrides" object, so a request names only the parameters it sweeps.
// An override points at its own value (see Int, U64 and Bool) and is
// never written through, so jobs may share one Overrides freely.
type Overrides struct {
	RangeWindow          *int    `json:"range_window,omitempty"`
	CreditWindows        *int    `json:"credit_windows,omitempty"`
	SCCROB               *int    `json:"scc_rob,omitempty"`
	SCCCount             *int    `json:"scc_count,omitempty"`
	FIFODepth            *int    `json:"fifo_depth,omitempty"`
	SCMIssueLatency      *uint64 `json:"scm_issue_latency,omitempty"`
	IndirectReduceMinLen *uint64 `json:"indirect_reduce_min_len,omitempty"`
	ContextSwitchAt      *uint64 `json:"context_switch_at,omitempty"`
	ContextSwitchGap     *uint64 `json:"context_switch_gap,omitempty"`
	ScalarPE             *bool   `json:"scalar_pe,omitempty"`
	MRSWLock             *bool   `json:"mrsw_lock,omitempty"`
	AffineRangesAtCore   *bool   `json:"affine_ranges_at_core,omitempty"`
}

// Int makes a set int override.
func Int(v int) *int { return &v }

// U64 makes a set uint64 override.
func U64(v uint64) *uint64 { return &v }

// Bool makes a set bool override.
func Bool(v bool) *bool { return &v }

// tunable ties one Overrides field to its core.Params field and its
// digest name.
type tunable interface {
	apply(o *Overrides, p *core.Params)
	canon(o *Overrides, def *core.Params)
	digest(o *Overrides) string
}

// knob is a tunable of value type T.
type knob[T int | uint64 | bool] struct {
	key   string
	ov    func(*Overrides) **T
	param func(*core.Params) *T
}

func (k knob[T]) apply(o *Overrides, p *core.Params) {
	if v := *k.ov(o); v != nil {
		*k.param(p) = *v
	}
}

func (k knob[T]) canon(o *Overrides, def *core.Params) {
	if f := k.ov(o); *f != nil && **f == *k.param(def) {
		*f = nil
	}
}

func (k knob[T]) digest(o *Overrides) string {
	if v := *k.ov(o); v != nil {
		return fmt.Sprintf("%s=%v", k.key, *v)
	}
	return ""
}

// tunables lists every override in digest order.
var tunables = []tunable{
	knob[int]{"rwin", func(o *Overrides) **int { return &o.RangeWindow }, func(p *core.Params) *int { return &p.RangeWindow }},
	knob[int]{"credits", func(o *Overrides) **int { return &o.CreditWindows }, func(p *core.Params) *int { return &p.CreditWindows }},
	knob[int]{"sccrob", func(o *Overrides) **int { return &o.SCCROB }, func(p *core.Params) *int { return &p.SCCROB }},
	knob[int]{"scccnt", func(o *Overrides) **int { return &o.SCCCount }, func(p *core.Params) *int { return &p.SCCCount }},
	knob[int]{"fifo", func(o *Overrides) **int { return &o.FIFODepth }, func(p *core.Params) *int { return &p.FIFODepth }},
	knob[uint64]{"scmlat", func(o *Overrides) **uint64 { return &o.SCMIssueLatency }, func(p *core.Params) *uint64 { return &p.SCMIssueLatency }},
	knob[uint64]{"irmin", func(o *Overrides) **uint64 { return &o.IndirectReduceMinLen }, func(p *core.Params) *uint64 { return &p.IndirectReduceMinLen }},
	knob[uint64]{"ctxat", func(o *Overrides) **uint64 { return &o.ContextSwitchAt }, func(p *core.Params) *uint64 { return &p.ContextSwitchAt }},
	knob[uint64]{"ctxgap", func(o *Overrides) **uint64 { return &o.ContextSwitchGap }, func(p *core.Params) *uint64 { return &p.ContextSwitchGap }},
	knob[bool]{"pe", func(o *Overrides) **bool { return &o.ScalarPE }, func(p *core.Params) *bool { return &p.ScalarPE }},
	knob[bool]{"mrsw", func(o *Overrides) **bool { return &o.MRSWLock }, func(p *core.Params) *bool { return &p.MRSWLock }},
	knob[bool]{"ranges@core", func(o *Overrides) **bool { return &o.AffineRangesAtCore }, func(p *core.Params) *bool { return &p.AffineRangesAtCore }},
}

// Apply writes every set field into p.
func (o Overrides) Apply(p *core.Params) {
	for _, t := range tunables {
		t.apply(&o, p)
	}
}

// canon clears every set field whose value equals the default in def, so
// "explicitly set to the default" and "unset" digest identically. This is
// what lets a sensitivity sweep's default point (e.g. Figure 13's
// 4-cycle SCM latency) share a memo entry with the plain runs of
// Figures 9-12.
func (o Overrides) canon(def core.Params) Overrides {
	for _, t := range tunables {
		t.canon(&o, &def)
	}
	return o
}

// digest renders the set fields in a fixed order, e.g.
// "scmlat=16,mrsw=false". Empty for all-defaults.
func (o Overrides) digest() string {
	var parts []string
	for _, t := range tunables {
		if d := t.digest(&o); d != "" {
			parts = append(parts, d)
		}
	}
	return strings.Join(parts, ",")
}

// Package axml implements the ActiveXML document model: XML documents with
// embedded Web-service calls (<axml:sc> elements), materialization of those
// calls in lazy or eager mode, and the four AXML operations — query, insert,
// delete and replace — applied through an operation log so that every effect
// can be compensated dynamically.
package axml

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"axmltx/internal/xmldom"
)

// Element and attribute names of the AXML vocabulary.
const (
	ElemSC       = xmldom.ServiceCallElement
	ElemParams   = "axml:params"
	ElemParam    = "axml:param"
	ElemValue    = "axml:value"
	ElemCatch    = "axml:catch"
	ElemCatchAll = "axml:catchAll"
	ElemRetry    = "axml:retry"

	AttrMode       = "mode"
	AttrServiceNS  = "serviceNameSpace"
	AttrServiceURL = "serviceURL"
	AttrMethodName = "methodName"
	AttrFrequency  = "frequency"
	AttrName       = "name"
	AttrFaultName  = "faultName"
	AttrFaultVar   = "faultVariable"
	AttrRetryTimes = "times"
	AttrRetryWait  = "wait"
)

// Mode is a service call's result-combination mode.
type Mode uint8

const (
	// ModeReplace replaces the previous invocation results with the new
	// ones.
	ModeReplace Mode = iota + 1
	// ModeMerge appends the new results as siblings of the previous ones.
	ModeMerge
)

func (m Mode) String() string {
	if m == ModeMerge {
		return "merge"
	}
	return "replace"
}

// ParseMode maps the mode attribute value; unknown values default to
// replace, the AXML default.
func ParseMode(s string) Mode {
	if strings.EqualFold(s, "merge") {
		return ModeMerge
	}
	return ModeReplace
}

// ServiceCall is a view over an <axml:sc> element.
type ServiceCall struct {
	node *xmldom.Node
}

// AsServiceCall wraps n when it is an <axml:sc> element.
func AsServiceCall(n *xmldom.Node) (*ServiceCall, bool) {
	if n != nil && n.Kind() == xmldom.ElementNode && n.Name() == ElemSC {
		return &ServiceCall{node: n}, true
	}
	return nil, false
}

// Node returns the underlying element.
func (sc *ServiceCall) Node() *xmldom.Node { return sc.node }

// ID returns the underlying node's ID.
func (sc *ServiceCall) ID() xmldom.NodeID { return sc.node.ID() }

// Mode returns the result-combination mode.
func (sc *ServiceCall) Mode() Mode {
	return ParseMode(sc.node.AttrDefault(AttrMode, "replace"))
}

// Service returns the service name: methodName when present, otherwise
// serviceNameSpace (the paper's listings set both to the same value).
func (sc *ServiceCall) Service() string {
	if m, ok := sc.node.Attr(AttrMethodName); ok && m != "" {
		return m
	}
	return sc.node.AttrDefault(AttrServiceNS, "")
}

// URL returns the serviceURL attribute, which in this implementation names
// the peer hosting the service ("" means any provider known locally).
func (sc *ServiceCall) URL() string { return sc.node.AttrDefault(AttrServiceURL, "") }

// Frequency returns the periodic-invocation interval and whether one is
// declared. The attribute holds a Go duration string (e.g. "30s").
func (sc *ServiceCall) Frequency() (time.Duration, bool) {
	v, ok := sc.node.Attr(AttrFrequency)
	if !ok {
		return 0, false
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, false
	}
	return d, true
}

// Param is one service-call parameter. Either Value is a literal string, or
// Nested points to an embedded service call whose materialized result
// provides the value (the paper's "service call parameters may themselves be
// defined as service calls").
type Param struct {
	Name   string
	Value  string
	Nested *ServiceCall
}

// Params returns the declared parameters in document order.
func (sc *ServiceCall) Params() []Param {
	params := sc.node.FirstElement(ElemParams)
	if params == nil {
		return nil
	}
	var out []Param
	for _, p := range params.Elements() {
		if p.Name() != ElemParam {
			continue
		}
		param := Param{Name: p.AttrDefault(AttrName, "")}
		if v := p.FirstElement(ElemValue); v != nil {
			if nested, ok := AsServiceCall(v.FirstElement(ElemSC)); ok {
				param.Nested = nested
			} else {
				param.Value = v.TextContent()
			}
		} else if nested, ok := AsServiceCall(p.FirstElement(ElemSC)); ok {
			param.Nested = nested
		} else {
			param.Value = p.TextContent()
		}
		out = append(out, param)
	}
	return out
}

// Results returns the previous invocation results: the sc element's children
// that are not parameters or fault handlers.
func (sc *ServiceCall) Results() []*xmldom.Node {
	var out []*xmldom.Node
	for _, c := range sc.node.Elements() {
		switch c.Name() {
		case ElemParams, ElemCatch, ElemCatchAll, ElemRetry:
			continue
		}
		out = append(out, c)
	}
	return out
}

// ResultNames returns the distinct element names of existing results. Lazy
// evaluation uses them to decide whether a query could need this call.
func (sc *ServiceCall) ResultNames() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range sc.Results() {
		if !seen[r.Name()] {
			seen[r.Name()] = true
			out = append(out, r.Name())
		}
	}
	return out
}

// FaultHandler is a declared fault handler on a service call, on the lines
// of BPEL4WS catch blocks (§3.2). A handler matches a fault by name; an
// empty FaultName is a catchAll. Retry, when non-nil, asks the runtime to
// re-invoke the service (possibly on a replica) instead of aborting.
type FaultHandler struct {
	FaultName string
	FaultVar  string
	Retry     *RetrySpec
}

// RetrySpec mirrors <axml:retry times="" wait=""> with an optional
// alternative service call to use for the retry (the "replicated peer"
// option).
type RetrySpec struct {
	Times int
	Wait  time.Duration
	Alt   *ServiceCall
}

// Handlers returns the declared fault handlers in document order; catchAll
// handlers sort naturally after named ones only if written after them, as
// in BPEL.
func (sc *ServiceCall) Handlers() []FaultHandler {
	var out []FaultHandler
	for _, c := range sc.node.Elements() {
		switch c.Name() {
		case ElemCatch:
			out = append(out, FaultHandler{
				FaultName: c.AttrDefault(AttrFaultName, ""),
				FaultVar:  c.AttrDefault(AttrFaultVar, ""),
				Retry:     retryOf(c),
			})
		case ElemCatchAll:
			out = append(out, FaultHandler{Retry: retryOf(c)})
		}
	}
	return out
}

func retryOf(handler *xmldom.Node) *RetrySpec {
	r := handler.FirstElement(ElemRetry)
	if r == nil {
		return nil
	}
	times, err := strconv.Atoi(r.AttrDefault(AttrRetryTimes, "1"))
	if err != nil || times < 1 {
		times = 1
	}
	wait, err := time.ParseDuration(r.AttrDefault(AttrRetryWait, "0s"))
	if err != nil || wait < 0 {
		wait = 0
	}
	spec := &RetrySpec{Times: times, Wait: wait}
	if alt, ok := AsServiceCall(r.FirstElement(ElemSC)); ok {
		spec.Alt = alt
	}
	return spec
}

// HandlerFor returns the first handler matching faultName: a named match
// wins; otherwise the first catchAll applies. ok is false when no handler
// matches, in which case the fault propagates (backward recovery).
func (sc *ServiceCall) HandlerFor(faultName string) (FaultHandler, bool) {
	handlers := sc.Handlers()
	for _, h := range handlers {
		if h.FaultName != "" && h.FaultName == faultName {
			return h, true
		}
	}
	for _, h := range handlers {
		if h.FaultName == "" {
			return h, true
		}
	}
	return FaultHandler{}, false
}

// ServiceCalls returns every <axml:sc> element in the document, in document
// order, including calls nested inside parameters and results.
func ServiceCalls(doc *xmldom.Document) []*ServiceCall {
	var out []*ServiceCall
	if doc.ServiceCallCount() == 0 {
		return nil
	}
	doc.Root().Walk(func(n *xmldom.Node) bool {
		if sc, ok := AsServiceCall(n); ok {
			out = append(out, sc)
		}
		return true
	})
	return out
}

// TopLevelServiceCalls returns the document's service calls that are not
// nested inside another call's parameters (those are materialized as part
// of evaluating the outer call) or fault handlers (those describe
// alternative invocations for recovery, not data to materialize), in
// document order. A document whose service-call count is 0 returns at
// once; otherwise the walk visits elements only and does not descend into
// parameters or handlers.
func TopLevelServiceCalls(doc *xmldom.Document) []*ServiceCall {
	if doc.ServiceCallCount() == 0 {
		return nil
	}
	callScans.Add(1)
	return appendTopLevelCalls(nil, doc.Root())
}

// callScans counts TopLevelServiceCalls' document walks, for tests.
var callScans atomic.Uint64

func appendTopLevelCalls(out []*ServiceCall, n *xmldom.Node) []*ServiceCall {
	if sc, ok := AsServiceCall(n); ok {
		out = append(out, sc)
	}
	switch n.Name() {
	case ElemParams, ElemCatch, ElemCatchAll, ElemRetry:
		return out
	}
	for _, c := range n.Children() {
		if c.Kind() == xmldom.ElementNode {
			out = appendTopLevelCalls(out, c)
		}
	}
	return out
}

// NewServiceCall builds a detached <axml:sc> element in doc.
func NewServiceCall(doc *xmldom.Document, service string, mode Mode, params map[string]string) *ServiceCall {
	b := xmldom.Build(doc, ElemSC).
		Attr(AttrMode, mode.String()).
		Attr(AttrServiceNS, service).
		Attr(AttrMethodName, service)
	if len(params) > 0 {
		pb := b.Child(ElemParams)
		// Deterministic order for serialization stability.
		names := make([]string, 0, len(params))
		for k := range params {
			names = append(names, k)
		}
		sortStrings(names)
		for _, name := range names {
			pb.Child(ElemParam).Attr(AttrName, name).Leaf(ElemValue, params[name])
		}
	}
	sc, _ := AsServiceCall(b.Node())
	return sc
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Describe renders a one-line description for logs and errors.
func (sc *ServiceCall) Describe() string {
	return fmt.Sprintf("sc(%s mode=%s url=%q node=%d)", sc.Service(), sc.Mode(), sc.URL(), sc.ID())
}

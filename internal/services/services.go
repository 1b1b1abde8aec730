// Package services implements the Web-service layer of an AXML peer:
// services defined as queries/updates over local AXML documents, generic
// (externally implemented) services, continuous subscription services, a
// registry, and WSDL-lite descriptors.
//
// Services execute data operations only; transaction bracketing, logging
// for compensation and recovery are layered on top by the core engine,
// which invokes services through the registry within a transaction context.
package services

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"axmltx/internal/axml"
	"axmltx/internal/query"
	"axmltx/internal/xmldom"
)

// Kind classifies a service for its descriptor.
type Kind string

const (
	// KindQuery services evaluate a select-from-where query over a hosted
	// document.
	KindQuery Kind = "query"
	// KindUpdate services apply an insert/delete/replace action.
	KindUpdate Kind = "update"
	// KindGeneric services are arbitrary functions (simulating external
	// Web services such as getGrandSlamsWon).
	KindGeneric Kind = "generic"
	// KindContinuous services push data streams to subscribers at an
	// interval (§3.3 case d).
	KindContinuous Kind = "continuous"
)

// ParamDef describes one declared parameter.
type ParamDef struct {
	Name     string
	Doc      string
	Required bool
}

// Descriptor is the WSDL-lite description of a service: enough for a caller
// to bind parameters and for the lazy evaluator to know the result element
// name.
type Descriptor struct {
	Name       string
	Kind       Kind
	Doc        string
	Params     []ParamDef
	ResultName string
	// TargetDocument names the hosted document the service reads or
	// writes, so the engine can take the right isolation lock before
	// invoking; empty for services that touch no local document.
	TargetDocument string
}

// XML renders the descriptor in a WSDL-reminiscent XML form, served by
// peers on request.
func (d Descriptor) XML() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<service name=%q kind=%q resultName=%q>`, d.Name, d.Kind, d.ResultName)
	if d.Doc != "" {
		fmt.Fprintf(&b, `<documentation>%s</documentation>`, d.Doc)
	}
	for _, p := range d.Params {
		fmt.Fprintf(&b, `<param name=%q required="%t"/>`, p.Name, p.Required)
	}
	b.WriteString(`</service>`)
	return b.String()
}

// Request is a service invocation as seen by the hosting peer.
type Request struct {
	// Txn is the global transaction the invocation belongs to.
	Txn string
	// Params are the resolved (post-materialization) parameters.
	Params map[string]string
}

// Service is anything invokable on a peer.
type Service interface {
	// Descriptor returns the service's static description.
	Descriptor() Descriptor
	// Invoke executes the service, returning result XML fragments.
	Invoke(ctx context.Context, req *Request) ([]string, error)
}

// Errors returned by the registry and services.
var (
	ErrUnknownService = errors.New("services: unknown service")
	ErrMissingParam   = errors.New("services: missing required parameter")
)

// Fault is a named service failure. Fault names select <axml:catch>
// handlers during recovery; generic errors behave as an anonymous fault
// (matched only by catchAll). Err, when set, is the underlying cause and
// participates in errors.Is/As chains via Unwrap.
type Fault struct {
	Name string
	Msg  string
	Err  error
}

// Error implements error.
func (f *Fault) Error() string {
	if f.Msg == "" {
		return "fault " + f.Name
	}
	return fmt.Sprintf("fault %s: %s", f.Name, f.Msg)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }

// FaultName extracts the fault name from an error chain, or "" for
// anonymous failures.
func FaultName(err error) string {
	var f *Fault
	if errors.As(err, &f) {
		return f.Name
	}
	return ""
}

// Registry holds a peer's services.
type Registry struct {
	mu   sync.RWMutex
	svcs map[string]Service
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{svcs: make(map[string]Service)}
}

// Register adds (or replaces) a service under its descriptor name.
func (r *Registry) Register(s Service) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.svcs[s.Descriptor().Name] = s
}

// Get returns the named service.
func (r *Registry) Get(name string) (Service, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.svcs[name]
	return s, ok
}

// Names returns the registered service names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.svcs))
	for n := range r.svcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ResultName reports the declared result element name for a service, ""
// when unknown — the hook lazy evaluation planning uses.
func (r *Registry) ResultName(service string) string {
	if s, ok := r.Get(service); ok {
		return s.Descriptor().ResultName
	}
	return ""
}

// Invoke looks up and executes a service, validating required parameters.
func (r *Registry) Invoke(ctx context.Context, name string, req *Request) ([]string, error) {
	s, ok := r.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, name)
	}
	for _, p := range s.Descriptor().Params {
		if p.Required {
			if _, ok := req.Params[p.Name]; !ok {
				return nil, fmt.Errorf("%w: %q of service %q", ErrMissingParam, p.Name, name)
			}
		}
	}
	return s.Invoke(ctx, req)
}

// substitute replaces $name placeholders in a template with parameter
// values. Values are inserted as quoted literals in query position, so a
// template says e.g. `where p/name/lastname = $lastname`.
func substitute(template string, params map[string]string, quote bool) string {
	// Longest-name-first so $year2 is not clobbered by $year.
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return len(names[i]) > len(names[j]) })
	out := template
	for _, n := range names {
		v := params[n]
		if quote {
			v = `"` + strings.ReplaceAll(v, `"`, ``) + `"`
		}
		out = strings.ReplaceAll(out, "$"+n, v)
	}
	return out
}

// QueryService exposes a select-from-where query over a store as a service.
// The query template may reference parameters as $name; they are bound as
// quoted literals at invocation time.
type QueryService struct {
	desc     Descriptor
	store    *axml.Store
	template string
	// fixed is the parsed template when it has no $ placeholder: every
	// invocation would parse the same text, so it is parsed once and
	// shared read-only.
	fixed *query.Query
	mat   axml.Materializer
	mode  axml.EvalMode
}

// NewQueryService builds a query service. mat supplies nested
// materialization during evaluation and may be nil for static documents.
func NewQueryService(desc Descriptor, store *axml.Store, template string, mat axml.Materializer, mode axml.EvalMode) *QueryService {
	desc.Kind = KindQuery
	s := &QueryService{desc: desc, store: store, template: template, mat: mat, mode: mode}
	if !strings.Contains(template, "$") {
		// A template that does not parse stays nil and fails at every
		// Invoke, as a parameterized one does.
		s.fixed, _ = axml.ParseQuery(template)
	}
	return s
}

// Descriptor implements Service.
func (s *QueryService) Descriptor() Descriptor { return s.desc }

// Invoke implements Service: it evaluates the bound query inside the
// caller's transaction and returns each result as a serialized fragment.
func (s *QueryService) Invoke(ctx context.Context, req *Request) ([]string, error) {
	q := s.fixed
	if q == nil {
		var err error
		if q, err = axml.ParseQuery(substitute(s.template, req.Params, true)); err != nil {
			return nil, fmt.Errorf("services: query %q: %w", s.desc.Name, err)
		}
	}
	res, err := s.store.Apply(req.Txn, axml.NewQuery(q), s.mat, s.mode)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, it := range res.Query.Items {
		if it.Attr != "" {
			v, _ := it.Node.Attr(it.Attr)
			out = append(out, fmt.Sprintf("<%s>%s</%s>", it.Attr, v, it.Attr))
			continue
		}
		out = append(out, xmldom.MarshalString(it.Node))
	}
	return out, nil
}

// UpdateService exposes an update action (insert/delete/replace) over a
// store as a service. The action XML template may reference $name
// parameters; inside <data> they substitute verbatim, inside <location>
// they are quoted by the query parser rules (the template author decides by
// writing quotes or not — substitution here is verbatim; use
// NewQueryService semantics for quoting needs).
type UpdateService struct {
	desc     Descriptor
	store    *axml.Store
	template string
	// fixed is the parsed template when it has no $ placeholder, shared
	// read-only by every invocation (see QueryService.fixed).
	fixed *axml.Action
	mat   axml.Materializer
}

// NewUpdateService builds an update service from an <action> XML template.
func NewUpdateService(desc Descriptor, store *axml.Store, template string, mat axml.Materializer) *UpdateService {
	desc.Kind = KindUpdate
	s := &UpdateService{desc: desc, store: store, template: template, mat: mat}
	if !strings.Contains(template, "$") {
		// As in NewQueryService, a template that does not parse fails at
		// every Invoke instead.
		s.fixed, _ = axml.ParseAction(template)
	}
	return s
}

// Descriptor implements Service.
func (s *UpdateService) Descriptor() Descriptor { return s.desc }

// Invoke implements Service. It applies the action and returns a summary
// fragment carrying the inserted node IDs (the paper: "we assume that the
// [insert] operation returns the (unique) ID of the inserted node").
func (s *UpdateService) Invoke(ctx context.Context, req *Request) ([]string, error) {
	action := s.fixed
	if action == nil {
		var err error
		if action, err = axml.ParseAction(substitute(s.template, req.Params, false)); err != nil {
			return nil, fmt.Errorf("services: update %q: %w", s.desc.Name, err)
		}
	}
	res, err := s.store.Apply(req.Txn, action, s.mat, axml.Lazy)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<updateResult deleted="%d" affected="%d">`, len(res.DeletedXML), res.AffectedNodes)
	for _, id := range res.InsertedIDs {
		fmt.Fprintf(&b, `<insertedID>%d</insertedID>`, id)
	}
	b.WriteString(`</updateResult>`)
	return []string{b.String()}, nil
}

// FuncService adapts a Go function as a generic service; it simulates the
// external Web services of the paper's examples (getPoints, ...) and
// supports scripted fault injection for recovery experiments.
type FuncService struct {
	desc Descriptor
	fn   func(ctx context.Context, params map[string]string) ([]string, error)
}

// NewFuncService wraps fn as a service.
func NewFuncService(desc Descriptor, fn func(ctx context.Context, params map[string]string) ([]string, error)) *FuncService {
	if desc.Kind == "" {
		desc.Kind = KindGeneric
	}
	return &FuncService{desc: desc, fn: fn}
}

// Descriptor implements Service.
func (s *FuncService) Descriptor() Descriptor { return s.desc }

// Invoke implements Service.
func (s *FuncService) Invoke(ctx context.Context, req *Request) ([]string, error) {
	return s.fn(ctx, req.Params)
}

// StaticService always returns fixed fragments; convenient in tests and
// examples.
func StaticService(desc Descriptor, fragments ...string) *FuncService {
	return NewFuncService(desc, func(context.Context, map[string]string) ([]string, error) {
		return fragments, nil
	})
}

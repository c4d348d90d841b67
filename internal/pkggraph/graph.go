// Package pkggraph models programs as the paper defines them (§2.1): a
// program is a collection of packages organised as a directed
// package-dependence graph, statically determinable from import
// statements. A package exports functions (code), variables (mutable
// data), constants (immutable data), and an arena (heap). A package's
// *natural dependencies* are its direct plus transitive imports; a
// package outside that set is *foreign* to it.
package pkggraph

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
)

// Metadata carries the provenance information the paper's Table 2 (TCB
// study) reports for public packages.
type Metadata struct {
	LOC          int    // lines of code this package contributes
	Stars        int    // GitHub stars (0 for application/internal code)
	Contributors int    // distinct committers
	Origin       string // "app", "stdlib", "public", "litterbox"
}

// Package is the static description of one program package.
type Package struct {
	Name    string
	Imports []string
	Meta    Metadata

	// Funcs lists exported function names; code bodies are registered
	// with the runtime (internal/core), keeping this model purely static.
	Funcs []string

	// Consts maps constant names to their immutable byte images; the
	// linker places them in the package's rodata section.
	Consts map[string][]byte

	// Vars maps static-variable names to their initial byte images; the
	// linker places them in the package's data section.
	Vars map[string]int // name -> size in bytes

	// InitFunc, if non-empty, names a function run at package load time.
	InitFunc string
}

// Clone returns a deep copy (shared byte slices are copied).
func (p *Package) Clone() *Package {
	q := &Package{
		Name:     p.Name,
		Imports:  append([]string(nil), p.Imports...),
		Meta:     p.Meta,
		Funcs:    append([]string(nil), p.Funcs...),
		InitFunc: p.InitFunc,
	}
	if p.Consts != nil {
		q.Consts = make(map[string][]byte, len(p.Consts))
		for k, v := range p.Consts {
			q.Consts[k] = append([]byte(nil), v...)
		}
	}
	if p.Vars != nil {
		q.Vars = make(map[string]int, len(p.Vars))
		for k, v := range p.Vars {
			q.Vars[k] = v
		}
	}
	return q
}

// Errors reported while building or querying a graph.
var (
	ErrDuplicate   = errors.New("pkggraph: duplicate package")
	ErrUnknown     = errors.New("pkggraph: unknown package")
	ErrCycle       = errors.New("pkggraph: import cycle")
	ErrMissingDep  = errors.New("pkggraph: import of undeclared package")
	ErrEmptyName   = errors.New("pkggraph: empty package name")
	ErrSelfImport  = errors.New("pkggraph: package imports itself")
	ErrReservedPkg = errors.New("pkggraph: package name reserved for LitterBox")
)

// Reserved names: LitterBox's own two packages (§5.3). Programs may not
// declare them; the runtime injects them.
const (
	UserPkg  = "litterbox/user"
	SuperPkg = "litterbox/super"
)

// Graph is a set of packages plus their import relation. Safe for
// concurrent reads after sealing; mutation is serialised.
type Graph struct {
	mu     sync.RWMutex
	pkgs   map[string]*Package
	closed bool

	// natural caches the natural-dependency set per package once sealed.
	natural map[string]map[string]bool

	// shared marks pkgs and natural as aliased with another graph (see
	// Share): the next write copies both maps first.
	shared bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{pkgs: make(map[string]*Package), natural: make(map[string]map[string]bool)}
}

// Add declares a package. Reserved LitterBox names are rejected unless
// allowReserved is used by the runtime itself.
func (g *Graph) Add(p *Package) error { return g.add(p, false) }

// AddReserved lets the enclosure runtime inject litterbox/user and
// litterbox/super.
func (g *Graph) AddReserved(p *Package) error { return g.add(p, true) }

func (g *Graph) add(p *Package, allowReserved bool) error {
	if p.Name == "" {
		return ErrEmptyName
	}
	if !allowReserved && (p.Name == UserPkg || p.Name == SuperPkg) {
		return fmt.Errorf("%w: %s", ErrReservedPkg, p.Name)
	}
	for _, im := range p.Imports {
		if im == p.Name {
			return fmt.Errorf("%w: %s", ErrSelfImport, p.Name)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errors.New("pkggraph: graph is sealed")
	}
	if _, ok := g.pkgs[p.Name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, p.Name)
	}
	g.pkgs[p.Name] = p
	return nil
}

// Seal validates the graph (all imports declared, no cycles) and freezes
// it; natural-dependency sets are computed eagerly. The paper performs
// this at startup for compiled languages and incrementally for dynamic
// ones (see AddIncremental).
func (g *Graph) Seal() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.validateLocked(); err != nil {
		return err
	}
	g.closed = true
	for name := range g.pkgs {
		g.natural[name] = g.naturalLocked(name)
	}
	return nil
}

// Sealed reports whether the graph has been sealed.
func (g *Graph) Sealed() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.closed
}

// AddIncremental registers a package after sealing, as a dynamic
// language's import mechanism does (§5.2). Its imports must already be
// present; natural-dependency caches of existing packages are unchanged
// (imports are append-only so existing closures stay valid), and the new
// package's own set is computed immediately.
func (g *Graph) AddIncremental(p *Package) error {
	if p.Name == "" {
		return ErrEmptyName
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.pkgs[p.Name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, p.Name)
	}
	for _, im := range p.Imports {
		if im == p.Name {
			return fmt.Errorf("%w: %s", ErrSelfImport, p.Name)
		}
		if _, ok := g.pkgs[im]; !ok {
			return fmt.Errorf("%w: %s imports %s", ErrMissingDep, p.Name, im)
		}
	}
	g.ownLocked()
	g.pkgs[p.Name] = p
	g.natural[p.Name] = g.naturalLocked(p.Name)
	return nil
}

func (g *Graph) validateLocked() error {
	for name, p := range g.pkgs {
		for _, im := range p.Imports {
			if _, ok := g.pkgs[im]; !ok {
				return fmt.Errorf("%w: %s imports %s", ErrMissingDep, name, im)
			}
		}
	}
	// Cycle detection via colouring.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(g.pkgs))
	var visit func(string, []string) error
	visit = func(n string, path []string) error {
		switch color[n] {
		case grey:
			return fmt.Errorf("%w: %v -> %s", ErrCycle, path, n)
		case black:
			return nil
		}
		color[n] = grey
		for _, im := range g.pkgs[n].Imports {
			if err := visit(im, append(path, n)); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	for n := range g.pkgs {
		if err := visit(n, nil); err != nil {
			return err
		}
	}
	return nil
}

func (g *Graph) naturalLocked(name string) map[string]bool {
	set := make(map[string]bool)
	var walk func(string)
	walk = func(n string) {
		p, ok := g.pkgs[n]
		if !ok {
			return
		}
		for _, im := range p.Imports {
			if !set[im] {
				set[im] = true
				walk(im)
			}
		}
	}
	walk(name)
	return set
}

// Share returns a graph aliasing g's tables for a warm snapshot: both
// sides copy the package and natural-dependency maps before their next
// write, so AddIncremental on either is invisible to the other. Package
// structs and cached natural-dependency sets are never copied — both
// are immutable once registered (imports are append-only and existing
// closures never change).
func (g *Graph) Share() *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shared = true
	return &Graph{pkgs: g.pkgs, natural: g.natural, closed: g.closed, shared: true}
}

// ResetTo re-points g at src's tables copy-on-write on both sides,
// discarding every package added since — how a recycled snapshot
// instance forgets its tenant's dynamic imports in O(1).
func (g *Graph) ResetTo(src *Graph) {
	src.mu.Lock()
	pkgs, natural, closed := src.pkgs, src.natural, src.closed
	src.shared = true
	src.mu.Unlock()
	g.mu.Lock()
	g.pkgs, g.natural, g.closed, g.shared = pkgs, natural, closed, true
	g.mu.Unlock()
}

// ownLocked gives g private copies of shared tables before a write.
func (g *Graph) ownLocked() {
	if !g.shared {
		return
	}
	g.pkgs = maps.Clone(g.pkgs)
	g.natural = maps.Clone(g.natural)
	g.shared = false
}

// Lookup returns the named package.
func (g *Graph) Lookup(name string) (*Package, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	p, ok := g.pkgs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	return p, nil
}

// Has reports whether the named package is declared.
func (g *Graph) Has(name string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.pkgs[name]
	return ok
}

// Names returns all package names, sorted.
func (g *Graph) Names() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.pkgs))
	for n := range g.pkgs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of declared packages.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.pkgs)
}

// NaturalDeps returns the natural dependencies of the named package:
// every package reachable via one or more import edges, excluding the
// package itself. The result is sorted and freshly allocated.
func (g *Graph) NaturalDeps(name string) ([]string, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.pkgs[name]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	var set map[string]bool
	if g.closed {
		if cached, ok := g.natural[name]; ok {
			set = cached
		}
	}
	if set == nil {
		set = g.naturalLocked(name)
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Foreign reports whether pkg other is foreign to pkg name: not the
// package itself and not among its natural dependencies (§2.1).
func (g *Graph) Foreign(name, other string) (bool, error) {
	if name == other {
		return false, nil
	}
	deps, err := g.NaturalDeps(name)
	if err != nil {
		return false, err
	}
	for _, d := range deps {
		if d == other {
			return false, nil
		}
	}
	g.mu.RLock()
	_, ok := g.pkgs[other]
	g.mu.RUnlock()
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknown, other)
	}
	return true, nil
}

// TopoOrder returns package names in dependency-first order (a package
// appears after everything it imports). Only valid on acyclic graphs.
func (g *Graph) TopoOrder() ([]string, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if err := g.validateLocked(); err != nil {
		return nil, err
	}
	visited := make(map[string]bool, len(g.pkgs))
	var order []string
	var visit func(string)
	visit = func(n string) {
		if visited[n] {
			return
		}
		visited[n] = true
		p := g.pkgs[n]
		imports := append([]string(nil), p.Imports...)
		sort.Strings(imports) // deterministic order
		for _, im := range imports {
			visit(im)
		}
		order = append(order, n)
	}
	names := make([]string, 0, len(g.pkgs))
	for n := range g.pkgs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		visit(n)
	}
	return order, nil
}

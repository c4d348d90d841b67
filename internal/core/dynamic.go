package core

import (
	"fmt"
	"maps"

	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// ImportDynamic registers a package at run time — a dynamic language's
// lazy module import (§5.2). The import machinery runs through the
// trusted runtime (CPython's import lock and loader live outside the
// restricted module code): the module's sections are placed, its code
// is registered, and — per the paper's default policy — when the import
// was triggered from inside an enclosure, that enclosure's execution
// environment gains the new module at full access. Other enclosures do
// not; their views were fixed when they were declared.
//
// The module's init function, if any, runs in the *current*
// environment: the importer can only initialise the module with the
// rights it already holds.
func (t *Task) ImportDynamic(spec PackageSpec) error {
	defer t.leave(t.enter())
	t.checkAlive()
	prog := t.prog
	if prog.hasPackageFuncs(spec.Name) {
		return fmt.Errorf("core: package %q already imported", spec.Name)
	}

	gp := &pkggraph.Package{
		Name:    spec.Name,
		Imports: append([]string(nil), spec.Imports...),
		Meta: pkggraph.Metadata{
			LOC: spec.LOC, Stars: spec.Stars, Contributors: spec.Contributors, Origin: spec.Origin,
		},
		Consts: spec.Consts,
		Vars:   spec.Vars,
	}
	if err := prog.graph.AddIncremental(gp); err != nil {
		return err
	}
	for fn := range spec.Funcs {
		gp.Funcs = append(gp.Funcs, fn)
	}

	// The loader is trusted runtime code: switch out, place, register.
	cur := t.env
	if err := prog.lb.Execute(t.cpu, cur, prog.lb.Trusted()); err != nil {
		return err
	}
	pl, err := prog.image.PlaceDynamic(gp)
	if err != nil {
		return err
	}
	var visibleTo []*litterbox.Env
	if !cur.Trusted {
		visibleTo = append(visibleTo, cur)
	}
	if err := prog.lb.AddDynamicPackage(t.cpu, gp, pl.Sections(), visibleTo); err != nil {
		return err
	}
	fns := make(map[string]Func, len(spec.Funcs))
	for name, fn := range spec.Funcs {
		fns[name] = fn
	}
	if prog.funcsShared {
		prog.funcs, prog.funcsShared = maps.Clone(prog.funcs), false
	}
	prog.funcs[spec.Name] = fns
	if err := prog.lb.Execute(t.cpu, prog.lb.Trusted(), cur); err != nil {
		return err
	}

	// Module top-level code runs with the importer's rights.
	if spec.Init != nil {
		t.pushPkg(spec.Name)
		defer t.popPkg()
		if _, err := spec.Init(t, nil); err != nil {
			return fmt.Errorf("core: init of dynamic import %s: %w", spec.Name, err)
		}
	}
	return nil
}

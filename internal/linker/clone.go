package linker

import (
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
)

// CloneWith rebinds the image onto a copy-on-write cloned address space:
// every placed *mem.Section is remapped through secMap (template section
// -> clone section; nil maps every section to itself) so the clone's
// backends and Transfer paths touch clone-owned section structs, never
// the template's. Symbol tables (Funcs/Consts/Vars) and the Marked set
// are shared — they are immutable after Link — while the Packages
// container becomes the clone's birth table: a dynamic import placed
// into the clone copies it first and stays invisible to the template,
// and Reset drops such imports by re-pointing at it.
func (img *Image) CloneWith(space *mem.AddressSpace, graph *pkggraph.Graph, secMap map[*mem.Section]*mem.Section) *Image {
	remap := func(s *mem.Section) *mem.Section {
		if ns, ok := secMap[s]; ok {
			return ns
		}
		return s
	}
	c := &Image{
		Space:      space,
		Graph:      graph,
		Packages:   make(map[string]*PackageLayout, len(img.Packages)),
		Marked:     img.Marked,
		PkgsSec:    remap(img.PkgsSec),
		RstrctSec:  remap(img.RstrctSec),
		VerifSec:   remap(img.VerifSec),
		pkgsShared: true,
	}
	for name, pl := range img.Packages {
		c.Packages[name] = &PackageLayout{
			Name:   pl.Name,
			Text:   remap(pl.Text),
			ROData: remap(pl.ROData),
			Data:   remap(pl.Data),
			Funcs:  pl.Funcs,
			Consts: pl.Consts,
			Vars:   pl.Vars,
		}
	}
	c.birth = c.Packages
	c.Enclosures = make([]*EnclosureDecl, len(img.Enclosures))
	for i, d := range img.Enclosures {
		nd := *d
		nd.Text = remap(d.Text)
		c.Enclosures[i] = &nd
	}
	return c
}

// Reset forgets every package placed into a clone since CloneWith — a
// recycled snapshot instance's dynamic imports — by re-pointing Packages
// at the birth table. A no-op on images that were not cloned.
func (img *Image) Reset() {
	if img.birth != nil {
		img.Packages, img.pkgsShared = img.birth, true
	}
}

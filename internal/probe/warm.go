package probe

import (
	"errors"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/snapstart"
)

// Warm holds the state the clone and recycled arms share for one trace:
// each backend's world is cold-built once, captured as a snapstart
// template, and replayed on the template's instance — fresh under the
// clone arm, recycled in place under the recycled arm. A warm world
// must produce bit-identical outcomes to a cold one on every trace;
// RunTrace's digest check against the reference arm pins exactly that.
// The zero value is ready to use.
type Warm struct {
	spec      WorldSpec
	templates []*snapstart.Template // per backend, backendNames order
	spans     [][]*mem.Section      // the cold source worlds' heap spans per backend
	insts     []*snapstart.Instance

	clones, recycles int64 // counts of earlier traces' templates
}

// Clone is the arm that captures the trace's templates and replays on
// fresh clones.
func (w *Warm) Clone() Arm { return Arm{Name: "clone", Build: w.capture} }

// Recycled is the arm that recycles the clone arm's instances in place
// and replays on them; it must follow the clone arm in the arm list.
func (w *Warm) Recycled() Arm { return Arm{Name: "recycled", Build: w.recycle} }

// Stats returns the snapstart instances cloned and recycled across
// every template the arms captured, as the templates count them.
func (w *Warm) Stats() (clones, recycles int64) {
	clones, recycles = w.clones, w.recycles
	for _, t := range w.templates {
		c, r := t.Stats()
		clones += c
		recycles += r
	}
	return clones, recycles
}

func (w *Warm) capture(spec WorldSpec) ([]*World, error) {
	w.clones, w.recycles = w.Stats()
	w.spec, w.templates, w.spans, w.insts = spec, nil, nil, nil
	colds, err := BuildWorlds(spec)
	if err != nil {
		return nil, err
	}
	for i, cold := range colds {
		t, err := snapstart.Capture(snapstart.Parts{
			Space: cold.LB.Space, Img: cold.Img, K: cold.K, Proc: cold.LB.Proc, LB: cold.LB,
		})
		if err != nil {
			return nil, fmt.Errorf("probe: capturing %s template: %w", backendNames[i], err)
		}
		w.templates = append(w.templates, t)
		w.spans = append(w.spans, cold.Spans)
	}
	for i, t := range w.templates {
		inst, err := t.Instantiate()
		if err != nil {
			return nil, fmt.Errorf("probe: warm %s world: %w", backendNames[i], err)
		}
		w.insts = append(w.insts, inst)
	}
	return w.worlds()
}

func (w *Warm) recycle(WorldSpec) ([]*World, error) {
	if w.insts == nil {
		return nil, errors.New("probe: the recycled arm has no clone arm's instances to recycle")
	}
	for i, inst := range w.insts {
		if err := inst.Recycle(); err != nil {
			return nil, fmt.Errorf("probe: recycling %s world: %w", backendNames[i], err)
		}
	}
	return w.worlds()
}

// worlds binds each instance into a probe World: fresh CPU, injector,
// fault domain, and env cache; heap spans remapped from the source
// world's sections through the template's onto the clone's.
func (w *Warm) worlds() ([]*World, error) {
	worlds := make([]*World, 0, len(w.insts))
	for i, inst := range w.insts {
		wd, err := bindWorld(backendNames[i], w.spec, inst.LB)
		if err != nil {
			return nil, fmt.Errorf("probe: installing trusted env in warm %s world: %w", backendNames[i], err)
		}
		for _, sec := range w.spans[i] {
			wd.Spans = append(wd.Spans, inst.Remap(w.templates[i].Remap(sec)))
		}
		worlds = append(worlds, wd)
	}
	return worlds, nil
}

package litterbox

import (
	"testing"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/seccomp"
)

// TestMPKTablesCopyOnWrite: an MPK backend sharing a template's key,
// color and rule tables copies them before its first write — a new
// color, a new filter rule, a new key — so the template never sees
// them, a write on the template side is invisible to the clone, and
// sharing the template's tables again drops the clone's writes.
func TestMPKTablesCopyOnWrite(t *testing.T) {
	tmpl := &MPKBackend{
		keyByMeta: []int{1, 2},
		keyOf:     map[string]int{"a": 1, "b": 2},
		rules:     map[uint32]seccomp.EnvRule{},
	}
	derive := func(b *MPKBackend, env *Env) {
		env.PKRU = b.colorize(env, hw.PKRUAllDenied)
		b.addRule(env)
	}
	derive(tmpl, &Env{ID: 1, Name: "io", Cats: kernel.CatIO})
	sizes := func(b *MPKBackend) [4]int {
		return [4]int{len(b.keyByMeta), len(b.keyOf), len(b.colorBySig), len(b.rules)}
	}
	want := sizes(tmpl)

	clone := &MPKBackend{}
	clone.shareTables(tmpl)
	derive(clone, &Env{ID: 2, Name: "net", Cats: kernel.CatNet})
	clone.ownKeys()
	clone.keyByMeta = append(clone.keyByMeta, 3)
	clone.keyOf["c"] = 3
	if got := sizes(tmpl); got != want {
		t.Fatalf("clone writes reached the template: tables %v, want %v", got, want)
	}
	grown := sizes(clone)
	if grown == want {
		t.Fatal("the clone's writes did not land in its own tables")
	}

	derive(tmpl, &Env{ID: 3, Name: "file", Cats: kernel.CatFile})
	if got := sizes(clone); got != grown {
		t.Fatalf("template writes reached the clone: tables %v, want %v", got, grown)
	}
	clone.shareTables(tmpl)
	if got, now := sizes(clone), sizes(tmpl); got != now {
		t.Fatalf("re-shared clone has tables %v, want the template's %v", got, now)
	}
}

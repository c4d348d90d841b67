package spec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse feeds Parse arbitrary bytes, seeded with the checked-in
// scenarios. Parse must not panic; a document it accepts must have a
// package, only known ops and pkg.fn bodies, and must survive a JSON
// round trip to the same File; and building it must fail with an
// error, never a panic.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no scenario seeds: %v", err)
	}
	for _, path := range seeds {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(figure1JSON))
	f.Add([]byte(`{"packages": []}`))
	f.Add([]byte(`{"packages": [{"name": "main", "funcs": {"F": ["sleep x"]}}]}`))

	f.Fuzz(func(t *testing.T, blob []byte) {
		file, err := Parse(blob)
		if err != nil {
			return
		}
		if len(file.Packages) == 0 {
			t.Fatal("accepted a spec with no packages")
		}
		for _, p := range file.Packages {
			for fn, ops := range p.Funcs {
				for _, op := range ops {
					if err := checkOp(op); err != nil {
						t.Fatalf("accepted %s.%s with a bad op: %v", p.Name, fn, err)
					}
				}
			}
		}
		again, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(again)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v", err)
		}
		if !reflect.DeepEqual(normalize(file), normalize(back)) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", file, back)
		}
		_, _ = Build(file)
	})
}

// normalize maps empty maps and slices to nil, which omitempty does not
// distinguish on the way back in.
func normalize(f *File) *File {
	g := *f
	g.Packages = append([]Package(nil), f.Packages...)
	for i := range g.Packages {
		p := &g.Packages[i]
		if len(p.Imports) == 0 {
			p.Imports = nil
		}
		if len(p.Vars) == 0 {
			p.Vars = nil
		}
		if len(p.Consts) == 0 {
			p.Consts = nil
		}
		if len(p.Funcs) == 0 {
			p.Funcs = nil
		}
	}
	g.Enclosures = append([]Enclosure(nil), f.Enclosures...)
	for i := range g.Enclosures {
		if len(g.Enclosures[i].Uses) == 0 {
			g.Enclosures[i].Uses = nil
		}
	}
	if len(g.Enclosures) == 0 {
		g.Enclosures = nil
	}
	if len(g.Run) == 0 {
		g.Run = nil
	}
	return &g
}

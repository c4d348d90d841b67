// Package bild recreates the paper's first macro-benchmark (§6.2): the
// popular bild image-processing package — "a collection of parallel
// image processing algorithms in pure Go" — which silently drags in over
// 160K lines of code of unverified origin. The application is a 32-LOC
// main that loads a sensitive image and inverts it inside an enclosure
// that disallows all system calls and extends the view with read-only
// access to the image's package.
//
// The workload is purely computational and memory-intensive: it
// allocates and computes an inverted image, with per-row temporary
// buffers whose churn drains and refills arena spans — the dynamic
// allocation traffic responsible for LB_MPK's transfer overhead in
// Table 2 (the paper's 1.12× for MPK vs 1.05× for VT-x).
package bild

import (
	"fmt"

	"github.com/litterbox-project/enclosure/internal/core"
)

// Pkg is the public package name.
const Pkg = "github.com/anthonynsimon/bild"

// Image dimensions used by the paper-scale benchmark: 512×512 RGBA.
const (
	DefaultWidth  = 512
	DefaultHeight = 512
	BytesPerPixel = 4
)

// Modelled compute rates (ns/byte) on the evaluation machine. The
// baseline run — clone pass plus invert pass over a 1 MiB image with
// allocator traffic — lands at the paper's 13.25ms.
const (
	costClonePerByte  = 4 // straight copy through the heap
	costInvertPerByte = 8 // load, complement, store
	costGrayPerByte   = 9 // weighted channel mix
)

// deps is bild's dependency tree, 166K LOC of transitively imported
// code (Table 2: Enclosed #LOC 166K, 2.9K stars, 15 contributors,
// 1 public dependency).
var deps = []core.PackageSpec{
	{Name: "golang.org/x/image/draw", Origin: "public", LOC: 31000},
	{Name: "golang.org/x/image/math/f64", Origin: "public", LOC: 9000},
	{Name: "image", Origin: "stdlib", LOC: 12000},
	{Name: "image/color", Origin: "stdlib", LOC: 4000},
	{Name: Pkg + "/math", Origin: "public", LOC: 11000, Imports: []string{"golang.org/x/image/math/f64"}},
	{Name: Pkg + "/clone", Origin: "public", LOC: 9000, Imports: []string{"image", "image/color"}},
	{Name: Pkg + "/parallel", Origin: "public", LOC: 6000},
	{Name: Pkg + "/convolution", Origin: "public", LOC: 28000,
		Imports: []string{Pkg + "/math", Pkg + "/clone", Pkg + "/parallel"}},
	{Name: Pkg + "/blend", Origin: "public", LOC: 24000,
		Imports: []string{Pkg + "/math", Pkg + "/clone"}},
}

// Register declares bild and its dependency tree on the builder.
func Register(b *core.Builder) {
	for _, d := range deps {
		b.Package(d)
	}
	b.Package(core.PackageSpec{
		Name:   Pkg,
		Origin: "public",
		LOC:    32000,
		Stars:  2900, Contributors: 15,
		Imports: []string{
			Pkg + "/math", Pkg + "/clone", Pkg + "/parallel",
			Pkg + "/convolution", Pkg + "/blend",
			"golang.org/x/image/draw", "image", "image/color",
		},
		Funcs: map[string]core.Func{
			"Invert":         invert,
			"InvertParallel": invertParallel,
			"Grayscale":      grayscale,
			"New":            newImage,
		},
	})
}

// EnclosedLOC sums the lines of unverified code the enclosure confines.
func EnclosedLOC() int {
	total := 32000
	for _, d := range deps {
		total += d.LOC
	}
	return total
}

// Rows slices an image buffer row by row.
func rowSize(w int) uint64 { return uint64(w * BytesPerPixel) }

// newImage allocates a w×h RGBA image in bild's arena.
func newImage(t *core.Task, args ...core.Value) ([]core.Value, error) {
	w, h := args[0].(int), args[1].(int)
	buf := t.Alloc(uint64(w*h) * BytesPerPixel)
	return []core.Value{buf}, nil
}

// invertRow clones the source row through a short-lived temporary,
// complements it, and writes the output row. Every other row an
// additional staging buffer of a different size class is used,
// mirroring bild's intermediate pixel-format conversions — the paper
// attributes LB_MPK's overhead to "frequent transfers to populate the
// arena with memory spans of various sizes".
func invertRow(t *core.Task, in, out core.Ref, y int, rs uint64) {
	tmp := t.Alloc(rs)
	row := t.ReadBytes(in.Slice(uint64(y)*rs, rs))
	t.WriteBytes(tmp, row)
	t.Compute(int64(rs) * costClonePerByte)

	data := t.ReadBytes(tmp)
	for i := range data {
		data[i] = ^data[i]
	}
	if y%2 == 0 {
		staging := t.Alloc(rs * 2) // RGBA64 staging, distinct size class
		t.WriteBytes(staging.Slice(0, rs), data)
		t.Free(staging)
	}
	t.WriteBytes(out.Slice(uint64(y)*rs, rs), data)
	t.Compute(int64(rs) * costInvertPerByte)
	t.Free(tmp)
}

// invert returns a freshly allocated inverted copy of the input image.
// The benchmark path is single-threaded, matching the paper's
// methodology ("all benchmarks run single threaded in order to
// accurately quantify the overheads of domain crossings").
func invert(t *core.Task, args ...core.Value) ([]core.Value, error) {
	in := args[0].(core.Ref)
	w, h := args[1].(int), args[2].(int)
	if uint64(w*h)*BytesPerPixel != in.Size {
		return nil, fmt.Errorf("bild: dimensions %dx%d do not match %s", w, h, in)
	}
	out := t.Alloc(in.Size)
	rs := rowSize(w)
	for y := 0; y < h; y++ {
		invertRow(t, in, out, y, rs)
	}
	return []core.Value{out}, nil
}

// invertParallel is the concurrent variant the examples use: stripes
// run on simulated goroutines that transitively inherit the enclosure's
// execution environment (§5.1).
func invertParallel(t *core.Task, args ...core.Value) ([]core.Value, error) {
	in := args[0].(core.Ref)
	w, h := args[1].(int), args[2].(int)
	if uint64(w*h)*BytesPerPixel != in.Size {
		return nil, fmt.Errorf("bild: dimensions %dx%d do not match %s", w, h, in)
	}
	out := t.Alloc(in.Size)
	rs := rowSize(w)
	const stripes = 4
	handles := make([]*core.Handle, 0, stripes)
	for s := 0; s < stripes; s++ {
		first, last := h*s/stripes, h*(s+1)/stripes
		handles = append(handles, t.Go(fmt.Sprintf("bild-invert-%d", s), func(t *core.Task) error {
			for y := first; y < last; y++ {
				invertRow(t, in, out, y, rs)
			}
			return nil
		}))
	}
	for _, h := range handles {
		if err := h.Join(t); err != nil {
			return nil, err
		}
	}
	return []core.Value{out}, nil
}

// grayscale converts to luminance in place of a fresh buffer.
func grayscale(t *core.Task, args ...core.Value) ([]core.Value, error) {
	in := args[0].(core.Ref)
	w, h := args[1].(int), args[2].(int)
	if uint64(w*h)*BytesPerPixel != in.Size {
		return nil, fmt.Errorf("bild: dimensions %dx%d do not match %s", w, h, in)
	}
	out := t.Alloc(in.Size)
	rs := rowSize(w)
	for y := 0; y < h; y++ {
		tmp := t.Alloc(rs)
		row := t.ReadBytes(in.Slice(uint64(y)*rs, rs))
		for x := 0; x+3 < len(row); x += 4 {
			// Rec. 601 luma, integer arithmetic.
			l := byte((299*int(row[x]) + 587*int(row[x+1]) + 114*int(row[x+2])) / 1000)
			row[x], row[x+1], row[x+2] = l, l, l
		}
		t.WriteBytes(tmp, row)
		t.WriteBytes(out.Slice(uint64(y)*rs, rs), row)
		t.Compute(int64(rs) * costGrayPerByte)
		t.Free(tmp)
	}
	return []core.Value{out}, nil
}

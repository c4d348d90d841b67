package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/litterbox"
)

// Image replication is content-addressed: a program image decomposes
// into blobs — one per package (immutable sections only), one for the
// enclosure declarations, and one per *distinct memory view* keyed by
// the PR 5 view-key registry's canonical rendering — each named by the
// SHA-256 of its canonical encoding. A joining node exchanges manifests
// with the registry (the cluster's first node) and ships only blobs the
// registry lacks, so N identical nodes ship the image exactly once:
// node0 seeds every blob, every later join dedupes 100%. Two
// enclosures with identical views collapse into one view blob on every
// node — the enclosure-aware half of the dedup. A node whose image
// disagrees with the registry on any blob name is heterogeneous and is
// rejected at join, before it can serve a request.

// blob is one stored content-addressed object.
type blob struct {
	name string
	data []byte
}

// blobMeta describes a blob in a manifest.
type blobMeta struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Size   int    `json:"size"`
}

// blobDigest is the content address: SHA-256 over the canonical bytes.
func blobDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// pkgBlob is a package blob's canonical encoding: identity, section
// geometry, and the contents of the immutable sections. Data-section
// *contents* are deliberately absent — they mutate at runtime, and a
// replica's digest must not depend on how far execution has progressed
// — but the geometry still pins the layout.
type pkgBlob struct {
	Name     string    `json:"name"`
	Sections []secDesc `json:"sections"`
	Text     []byte    `json:"text"`
	ROData   []byte    `json:"rodata"`
}

type secDesc struct {
	Name string `json:"name"`
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
	Perm uint8  `json:"perm"`
}

// enclBlob canonically encodes the enclosure declarations, tokens
// included: the verification list is part of the image (.verif) and a
// replica disagreeing on it must not join.
type enclBlob struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Pkg    string `json:"pkg"`
	Policy string `json:"policy"`
	Token  uint64 `json:"token"`
}

// viewBlob canonically encodes one distinct environment view plus the
// non-memory policy axes. Its identity is the view key, so enclosures
// with identical views produce one blob.
type viewBlob struct {
	ViewKey string   `json:"view_key"`
	Cats    uint64   `json:"cats"`
	Connect []uint32 `json:"connect"`
}

// imageBlobs decomposes prog's image into content-addressed blobs,
// sorted by name.
func imageBlobs(prog *core.Program) ([]blob, error) {
	img := prog.Image()
	space := img.Space
	var blobs []blob

	names := make([]string, 0, len(img.Packages))
	for name := range img.Packages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pl := img.Layout(name)
		pb := pkgBlob{Name: name}
		for _, sec := range pl.Sections() {
			if sec == nil {
				continue
			}
			pb.Sections = append(pb.Sections, secDesc{
				Name: sec.Name, Base: uint64(sec.Base), Size: sec.Size, Perm: uint8(sec.Perm),
			})
		}
		if pl.Text != nil && pl.Text.Size > 0 {
			pb.Text = make([]byte, pl.Text.Size)
			if err := space.ReadAt(pl.Text.Base, pb.Text); err != nil {
				return nil, fmt.Errorf("reading %s text: %w", name, err)
			}
		}
		if pl.ROData != nil && pl.ROData.Size > 0 {
			pb.ROData = make([]byte, pl.ROData.Size)
			if err := space.ReadAt(pl.ROData.Base, pb.ROData); err != nil {
				return nil, fmt.Errorf("reading %s rodata: %w", name, err)
			}
		}
		data, err := json.Marshal(pb)
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, blob{name: "pkg:" + name, data: data})
	}

	var encls []enclBlob
	for _, d := range img.Enclosures {
		encls = append(encls, enclBlob{ID: d.ID, Name: d.Name, Pkg: d.Pkg, Policy: d.Policy, Token: d.Token})
	}
	data, err := json.Marshal(encls)
	if err != nil {
		return nil, err
	}
	blobs = append(blobs, blob{name: "encl", data: data})

	// One blob per distinct memory view: the view-key registry's dedup,
	// carried across the wire. Envs are walked in ID order so the first
	// env with a view names its blob deterministically on every node.
	seen := map[string]bool{}
	for _, env := range prog.LitterBox().EnvsSnapshot() {
		if env.Trusted {
			continue
		}
		key := litterbox.ViewKey(env)
		if seen[key] {
			continue
		}
		seen[key] = true
		vb := viewBlob{ViewKey: key, Cats: uint64(env.Cats), Connect: env.ConnectAllow}
		data, err := json.Marshal(vb)
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, blob{name: "view:" + blobDigest([]byte(key))[:12], data: data})
	}
	return blobs, nil
}

// imageManifest computes the sorted manifest of prog's image blobs and
// loads them into the given store (the node holds what it built).
func imageManifest(prog *core.Program) ([]blobMeta, error) {
	blobs, err := imageBlobs(prog)
	if err != nil {
		return nil, err
	}
	metas := make([]blobMeta, 0, len(blobs))
	for _, b := range blobs {
		metas = append(metas, blobMeta{Name: b.name, Digest: blobDigest(b.data), Size: len(b.data)})
	}
	return metas, nil
}

func (n *Node) putBlob(digest string, b blob) {
	n.storeMu.Lock()
	n.store[digest] = b
	n.storeMu.Unlock()
}

// storeManifest renders the store as a manifest, sorted by name.
func (n *Node) storeManifest() []blobMeta {
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	out := make([]blobMeta, 0, len(n.store))
	for d, b := range n.store {
		out = append(out, blobMeta{Name: b.name, Digest: d, Size: len(b.data)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// seedStore loads the node's own image blobs into its store — the
// bootstrap of the first node, which becomes the cluster's registry.
func (n *Node) seedStore() (shipped int, bytes int64, err error) {
	blobs, err := imageBlobs(n.prog)
	if err != nil {
		return 0, 0, err
	}
	for _, b := range blobs {
		n.putBlob(blobDigest(b.data), b)
		shipped++
		bytes += int64(len(b.data))
	}
	return shipped, bytes, nil
}

// replicateTo reconciles the node's image with the registry node over
// the control plane: fetch the registry's manifest, verify every blob
// both sides name identically, and ship only what the registry lacks.
// It returns the shipped/deduplicated counts. A per-name digest
// mismatch is an image divergence and aborts the join.
func (n *Node) replicateTo(registry *Node) (shipped, deduped int, shippedBytes, dedupedBytes int64, err error) {
	local, err := imageBlobs(n.prog)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	mc, err := n.dialCtrl(registry)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer mc.Close()

	resp, err := roundTrip(mc, ctrlMsg{Kind: "manifest", Node: n.id})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	remote, err := manifestDigests(resp.Data)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("cluster: %s: malformed registry manifest: %w", n.id, err)
	}

	for _, b := range local {
		digest := blobDigest(b.data)
		if has, err := n.registryHas(remote, b.name, digest); err != nil {
			return shipped, deduped, shippedBytes, dedupedBytes, err
		} else if has {
			deduped++
			dedupedBytes += int64(len(b.data))
			n.putBlob(digest, b) // the node holds what it built
			continue
		}
		if _, err := roundTrip(mc, ctrlMsg{Kind: "blob", Node: n.id, Name: b.name, Digest: digest, Data: b.data}); err != nil {
			return shipped, deduped, shippedBytes, dedupedBytes, err
		}
		n.putBlob(digest, b)
		shipped++
		shippedBytes += int64(len(b.data))
	}
	return shipped, deduped, shippedBytes, dedupedBytes, nil
}

// manifestDigests decodes a manifest into each blob's digest by name.
func manifestDigests(data []byte) (map[string]string, error) {
	var ms []blobMeta
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, err
	}
	byName := make(map[string]string, len(ms))
	for _, m := range ms {
		byName[m.Name] = m.Digest
	}
	return byName, nil
}

// registryHas reports whether the registry's manifest holds the blob
// named name; naming it with another digest is an image divergence.
func (n *Node) registryHas(remote map[string]string, name, digest string) (bool, error) {
	have, ok := remote[name]
	if ok && have != digest {
		return false, fmt.Errorf(
			"cluster: %s: image mismatch with registry on blob %q: %s != %s — heterogeneous node rejected",
			n.id, name, shortDigest(digest), shortDigest(have))
	}
	return ok, nil
}

// verifyImageDigests checks a migration source's manifest against this
// node's own image, per name: any divergence rejects the migration.
func (n *Node) verifyImageDigests(src []blobMeta) error {
	byName := make(map[string]string, len(n.manifest))
	for _, m := range n.manifest {
		byName[m.Name] = m.Digest
	}
	if len(src) != len(n.manifest) {
		return fmt.Errorf("cluster: %s: migration image manifest has %d blobs, local image has %d",
			n.id, len(src), len(n.manifest))
	}
	for _, m := range src {
		local, ok := byName[m.Name]
		if !ok {
			return fmt.Errorf("cluster: %s: migration image blob %q unknown locally", n.id, m.Name)
		}
		if local != m.Digest {
			return fmt.Errorf("cluster: %s: migration image blob %q digest %s != local %s",
				n.id, m.Name, shortDigest(m.Digest), shortDigest(local))
		}
	}
	return nil
}

// stateExportWire is the migrate request payload: the source's env
// state snapshot plus its image manifest, both re-verified on the
// target.
type stateExportWire struct {
	State litterbox.StateExport `json:"state"`
	Image []blobMeta            `json:"image"`
}

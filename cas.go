package nesc

// Content-addressed image management (requires Config.CAS). The tier models
// golden-image provisioning at fleet scale: one host seals a prepared image
// into a shared chunk store, any number of hosts fork it as metadata-only
// copies, and each forked block's content materializes lazily — on first
// guest touch — through the device's translation-miss path.

// ImageManifest summarizes one sealed (or forked) image in the store.
type ImageManifest struct {
	// Name is the manifest's store key.
	Name string
	// Gen counts the fork generation (1 for a sealed master).
	Gen uint64
	// Blocks is the image length in blocks (= chunks).
	Blocks int
}

// SealImage content-addresses the host image at path into the store under
// name: every block is hashed into a chunk, new chunks are pushed to the
// simulated remote tier in one batched PUT, and blocks whose content is
// already sealed anywhere deduplicate against the existing chunks. The image
// file itself is untouched.
func (c *Ctx) SealImage(path, name string, uid uint32) (ImageManifest, error) {
	m, err := c.s.pl.CAS.SealImage(c.proc, c.host(), path, name, uid)
	if err != nil {
		return ImageManifest{}, err
	}
	return ImageManifest{Name: m.Name, Gen: m.Gen, Blocks: int(m.Blocks())}, nil
}

// ForkImage clones the sealed image src onto host 0 as a metadata-only copy
// at path, owned by uid: chunk references are taken, a fully sparse backing
// file is created, and no data moves. VMs started on path run fetch-backed —
// each block's content is served from the host's chunk cache or fetched from
// the remote tier the first time the guest touches it. It is ForkImageOn at
// device 0.
func (c *Ctx) ForkImage(src, path string, uid uint32) error {
	return c.ForkImageOn(0, src, path, uid)
}

// ForkImageOn is ForkImage onto fleet host dev (requires Config.Devices >
// dev). The fork is as metadata-only across hosts as it is locally: only
// chunk hashes travel at fork time.
func (c *Ctx) ForkImageOn(dev int, src, path string, uid uint32) error {
	d, err := c.device(dev)
	if err != nil {
		return err
	}
	return c.s.pl.CAS.ForkImage(c.proc, d, src, path, uid)
}

// ReleaseImage drops a forked image's chunk references on host 0 and unbinds
// the path. Stop VMs using the image first: blocks never materialized become
// unreadable afterwards. It is ReleaseImageOn at device 0.
func (c *Ctx) ReleaseImage(path string) error { return c.ReleaseImageOn(0, path) }

// ReleaseImageOn is ReleaseImage on fleet host dev.
func (c *Ctx) ReleaseImageOn(dev int, path string) error {
	d, err := c.device(dev)
	if err != nil {
		return err
	}
	return c.s.pl.CAS.ReleaseImage(c.proc, d, path)
}

// ReleaseSealed drops a sealed master's own chunk references. Outstanding
// forks keep their chunks alive through their own references; chunks no
// image references anymore are freed.
func (c *Ctx) ReleaseSealed(name string) error {
	return c.s.pl.CAS.Store.Release(c.proc, name)
}

// CASDedupRatio reports logical blocks referenced per unique chunk stored
// across the whole store (1.0 = no sharing; 0 when the store is empty or
// Config.CAS is off).
func (s *Simulation) CASDedupRatio() float64 {
	return s.pl.CAS.Store.DedupRatio()
}

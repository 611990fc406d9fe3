package extfs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"nesc/internal/extent"
	"nesc/internal/sim"
)

// Directories are regular extent-mapped data streams of fixed 64-byte
// entries: {ino uint32, nameLen uint8, pad uint8, name[58]}; ino 0 marks a
// free slot.

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name string
	Ino  uint32
}

// Info is the Stat result.
type Info struct {
	Ino   uint32
	Mode  uint16
	UID   uint32
	Size  uint64
	Links uint16
	// Extents is the number of extents backing the file.
	Extents int
}

// IsDir reports whether the entry is a directory.
func (i Info) IsDir() bool { return i.Mode&ModeDir != 0 }

func encodeDirent(b []byte, ino uint32, name string) {
	clear(b[:DirentSize])
	binary.BigEndian.PutUint32(b[0:], ino)
	b[4] = uint8(len(name))
	copy(b[6:], name)
}

func decodeDirent(b []byte) (uint32, string) {
	ino := binary.BigEndian.Uint32(b[0:])
	n := int(b[4])
	if n > MaxNameLen {
		n = MaxNameLen
	}
	return ino, string(b[6 : 6+n])
}

// readDirData slurps a directory's content.
func (fs *FS) readDirData(ctx *sim.Proc, in *inode) ([]byte, error) {
	buf := make([]byte, in.size)
	if err := fs.readRange(ctx, in, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// lookupDirent finds name in directory dirIno, returning the target inode
// and the byte offset of the entry.
func (fs *FS) lookupDirent(ctx *sim.Proc, dirIno uint32, name string) (uint32, uint64, error) {
	in := &fs.inodes[dirIno]
	data, err := fs.readDirData(ctx, in)
	if err != nil {
		return 0, 0, err
	}
	for off := 0; off+DirentSize <= len(data); off += DirentSize {
		ino, n := decodeDirent(data[off:])
		if ino != 0 && n == name {
			return ino, uint64(off), nil
		}
	}
	return 0, 0, ErrNotExist
}

// addDirent inserts a (name, ino) entry into dirIno, reusing a free slot or
// appending.
func (fs *FS) addDirent(ctx *sim.Proc, dirIno uint32, name string, ino uint32) error {
	in := &fs.inodes[dirIno]
	data, err := fs.readDirData(ctx, in)
	if err != nil {
		return err
	}
	slot := uint64(len(data))
	for off := 0; off+DirentSize <= len(data); off += DirentSize {
		if e, _ := decodeDirent(data[off:]); e == 0 {
			slot = uint64(off)
			break
		}
	}
	var ent [DirentSize]byte
	encodeDirent(ent[:], ino, name)
	return fs.writeRange(ctx, in, slot, ent[:], true)
}

// clearDirent frees the entry at byte offset off in dirIno.
func (fs *FS) clearDirent(ctx *sim.Proc, dirIno uint32, off uint64) error {
	var ent [DirentSize]byte
	return fs.writeRange(ctx, &fs.inodes[dirIno], off, ent[:], true)
}

// dirEmpty reports whether a directory holds no live entries.
func (fs *FS) dirEmpty(ctx *sim.Proc, dirIno uint32) (bool, error) {
	data, err := fs.readDirData(ctx, &fs.inodes[dirIno])
	if err != nil {
		return false, err
	}
	for off := 0; off+DirentSize <= len(data); off += DirentSize {
		if ino, _ := decodeDirent(data[off:]); ino != 0 {
			return false, nil
		}
	}
	return true, nil
}

// resolve walks path from the root, enforcing exec (search) permission on
// every traversed directory.
func (fs *FS) resolve(ctx *sim.Proc, path string, uid uint32) (uint32, error) {
	parts, err := pathParts(path)
	if err != nil {
		return 0, err
	}
	cur := uint32(RootIno)
	for _, name := range parts {
		in := &fs.inodes[cur]
		if !in.isDir() {
			return 0, ErrNotDir
		}
		if !accessOK(in, uid, PermExec) {
			return 0, ErrPerm
		}
		next, _, err := fs.lookupDirent(ctx, cur, name)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return cur, nil
}

// resolveParent resolves everything but the final component, returning the
// parent directory inode and the final name.
func (fs *FS) resolveParent(ctx *sim.Proc, path string, uid uint32) (uint32, string, error) {
	parts, err := pathParts(path)
	if err != nil {
		return 0, "", err
	}
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("extfs: empty path")
	}
	dir := uint32(RootIno)
	for _, name := range parts[:len(parts)-1] {
		in := &fs.inodes[dir]
		if !in.isDir() {
			return 0, "", ErrNotDir
		}
		if !accessOK(in, uid, PermExec) {
			return 0, "", ErrPerm
		}
		next, _, err := fs.lookupDirent(ctx, dir, name)
		if err != nil {
			return 0, "", err
		}
		dir = next
	}
	return dir, parts[len(parts)-1], nil
}

// createNode is the shared Create/Mkdir implementation.
func (fs *FS) createNode(ctx *sim.Proc, path string, uid uint32, mode uint16) (uint32, error) {
	parent, name, err := fs.resolveParent(ctx, path, uid)
	if err != nil {
		return 0, err
	}
	pin := &fs.inodes[parent]
	if !pin.isDir() {
		return 0, ErrNotDir
	}
	if !accessOK(pin, uid, PermWrite|PermExec) {
		return 0, ErrPerm
	}
	if _, _, err := fs.lookupDirent(ctx, parent, name); err == nil {
		return 0, ErrExist
	}
	ino, err := fs.allocInode()
	if err != nil {
		return 0, err
	}
	fs.inodes[ino] = inode{used: true, mode: mode, links: 1, uid: uid}
	if mode&ModeDir != 0 {
		fs.inodes[ino].links = 2
		fs.inodes[parent].links++
	}
	if err := fs.addDirent(ctx, parent, name, ino); err != nil {
		fs.inodes[ino] = inode{}
		return 0, err
	}
	if err := fs.writeInode(ctx, ino); err != nil {
		return 0, err
	}
	if err := fs.writeInode(ctx, parent); err != nil {
		return 0, err
	}
	return ino, nil
}

// Create makes a new regular file owned by uid with the given permission
// bits and returns a writable handle.
func (fs *FS) Create(ctx *sim.Proc, path string, uid uint32, perm uint16) (*File, error) {
	var ino uint32
	err := fs.transact(ctx, func() (err error) {
		ino, err = fs.createNode(ctx, path, uid, ModeFile|(perm&0o777))
		return err
	})
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino, writable: true}, nil
}

// Mkdir makes a new directory.
func (fs *FS) Mkdir(ctx *sim.Proc, path string, uid uint32, perm uint16) error {
	return fs.transact(ctx, func() error {
		_, err := fs.createNode(ctx, path, uid, ModeDir|(perm&0o777))
		return err
	})
}

// Open opens an existing file. perm is the access the caller wants
// (PermRead and/or PermWrite); the handle is writable iff PermWrite was
// requested and granted.
func (fs *FS) Open(ctx *sim.Proc, path string, uid uint32, perm uint16) (*File, error) {
	if err := fs.begin(ctx); err != nil {
		return nil, err
	}
	defer fs.end(ctx)
	ino, err := fs.resolve(ctx, path, uid)
	if err != nil {
		return nil, err
	}
	in := &fs.inodes[ino]
	if in.isDir() {
		return nil, ErrIsDir
	}
	if !accessOK(in, uid, perm) {
		return nil, ErrPerm
	}
	return &File{fs: fs, ino: ino, writable: perm&PermWrite != 0}, nil
}

// Remove unlinks a file or an empty directory.
func (fs *FS) Remove(ctx *sim.Proc, path string, uid uint32) error {
	return fs.transact(ctx, func() error { return fs.removeLocked(ctx, path, uid) })
}

func (fs *FS) removeLocked(ctx *sim.Proc, path string, uid uint32) error {
	parent, name, err := fs.resolveParent(ctx, path, uid)
	if err != nil {
		return err
	}
	pin := &fs.inodes[parent]
	if !accessOK(pin, uid, PermWrite|PermExec) {
		return ErrPerm
	}
	ino, slot, err := fs.lookupDirent(ctx, parent, name)
	if err != nil {
		return err
	}
	in := &fs.inodes[ino]
	if in.isDir() {
		empty, err := fs.dirEmpty(ctx, ino)
		if err != nil {
			return err
		}
		if !empty {
			return ErrNotEmpty
		}
		fs.inodes[parent].links--
	}
	if err := fs.clearDirent(ctx, parent, slot); err != nil {
		return err
	}
	// Free data and metadata.
	if err := fs.truncateTo(ctx, in, 0); err != nil {
		return err
	}
	for _, b := range in.overflow {
		fs.freeRun(b, 1)
	}
	in.overflow = nil
	fs.inodes[ino] = inode{}
	// Rewrite both inode blocks (target cleared, parent link count).
	if err := fs.writeInode(ctx, ino); err != nil {
		return err
	}
	return fs.writeInode(ctx, parent)
}

// Stat reports metadata for a path.
func (fs *FS) Stat(ctx *sim.Proc, path string, uid uint32) (Info, error) {
	if err := fs.begin(ctx); err != nil {
		return Info{}, err
	}
	defer fs.end(ctx)
	ino, err := fs.resolve(ctx, path, uid)
	if err != nil {
		return Info{}, err
	}
	in := &fs.inodes[ino]
	return Info{Ino: ino, Mode: in.mode, UID: in.uid, Size: in.size, Links: in.links, Extents: len(in.extents)}, nil
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(ctx *sim.Proc, path string, uid uint32) ([]DirEntry, error) {
	if err := fs.begin(ctx); err != nil {
		return nil, err
	}
	defer fs.end(ctx)
	ino, err := fs.resolve(ctx, path, uid)
	if err != nil {
		return nil, err
	}
	in := &fs.inodes[ino]
	if !in.isDir() {
		return nil, ErrNotDir
	}
	if !accessOK(in, uid, PermRead) {
		return nil, ErrPerm
	}
	data, err := fs.readDirData(ctx, in)
	if err != nil {
		return nil, err
	}
	var out []DirEntry
	for off := 0; off+DirentSize <= len(data); off += DirentSize {
		if e, name := decodeDirent(data[off:]); e != 0 {
			out = append(out, DirEntry{Name: name, Ino: e})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Access reports whether uid holds perm on path (the hypervisor's check
// before exporting a file as a VF).
func (fs *FS) Access(ctx *sim.Proc, path string, uid uint32, perm uint16) error {
	if err := fs.begin(ctx); err != nil {
		return err
	}
	defer fs.end(ctx)
	ino, err := fs.resolve(ctx, path, uid)
	if err != nil {
		return err
	}
	if !accessOK(&fs.inodes[ino], uid, perm) {
		return ErrPerm
	}
	return nil
}

// Runs exports the file's logical-to-physical extent map in filesystem-block
// units along with its size — the input to NeSC VF creation. The mapping is
// exactly what the inode's extent map says; holes are simply absent.
func (fs *FS) Runs(ctx *sim.Proc, path string) ([]extent.Run, uint64, error) {
	return fs.AppendRuns(ctx, path, nil)
}

// AppendRuns is Runs appending to dst, so a caller that asks again and again
// (the hypervisor's miss service) can reuse one buffer. dst is written after
// the call's last park.
func (fs *FS) AppendRuns(ctx *sim.Proc, path string, dst []extent.Run) ([]extent.Run, uint64, error) {
	if err := fs.begin(ctx); err != nil {
		return nil, 0, err
	}
	defer fs.end(ctx)
	ino, err := fs.resolve(ctx, path, 0)
	if err != nil {
		return nil, 0, err
	}
	in := &fs.inodes[ino]
	if in.isDir() {
		return nil, 0, ErrIsDir
	}
	return append(dst, in.extents...), in.size, nil
}

// Migrate relocates every physical block of path to freshly allocated
// blocks, copying the data and updating the extent map — the filesystem
// half of host-side block optimizations like deduplication or
// defragmentation. Callers exporting the file through NeSC must rebuild the
// device extent tree and flush the BTLB afterwards (paper §V-B).
func (fs *FS) Migrate(ctx *sim.Proc, path string) error {
	return fs.transact(ctx, func() error { return fs.migrateLocked(ctx, path) })
}

func (fs *FS) migrateLocked(ctx *sim.Proc, path string) error {
	ino, err := fs.resolve(ctx, path, 0)
	if err != nil {
		return err
	}
	in := &fs.inodes[ino]
	if in.isDir() {
		return ErrIsDir
	}
	oldExts := in.extents
	var newExts []extent.Run
	rollback := func() {
		for _, e := range newExts {
			fs.freeRun(e.Physical, e.Count)
		}
	}
	buf := make([]byte, 64*fs.bs)
	for _, e := range oldExts {
		rem := e
		for rem.Count > 0 {
			start, got := fs.allocRun(fs.allocHint, rem.Count)
			if got == 0 {
				rollback()
				return ErrNoSpace
			}
			for off := uint64(0); off < got; {
				n := got - off
				if n > uint64(len(buf)/fs.bs) {
					n = uint64(len(buf) / fs.bs)
				}
				span := buf[:n*uint64(fs.bs)]
				fs.DataBlockReads += int64(n)
				if err := fs.dev.ReadBlocks(ctx, int64(rem.Physical+off), span); err != nil {
					rollback()
					return err
				}
				fs.DataBlockWrites += int64(n)
				if err := fs.devWrite(ctx, int64(start+off), span); err != nil {
					rollback()
					return err
				}
				off += n
			}
			newExts = append(newExts, extent.Run{Logical: rem.Logical, Physical: start, Count: got})
			rem.Logical += got
			rem.Physical += got
			rem.Count -= got
		}
	}
	for _, e := range oldExts {
		fs.freeRun(e.Physical, e.Count)
	}
	in.extents = nil
	for _, r := range newExts {
		insertMapping(in, r)
	}
	return fs.writeInode(ctx, ino)
}

// AllocateRange backs logical blocks [blk, blk+n) of path with physical
// storage (zero-filled), extending the file size if the range reaches past
// EOF. This is the hypervisor's lazy-allocation response to a NeSC write
// miss (paper Fig. 5b: "Allocate blocks, add extents").
func (fs *FS) AllocateRange(ctx *sim.Proc, path string, blk, n uint64) error {
	return fs.transact(ctx, func() error {
		ino, err := fs.resolve(ctx, path, 0)
		if err != nil {
			return err
		}
		in := &fs.inodes[ino]
		if err := fs.ensureAllocated(ctx, in, blk, n, true); err != nil {
			return err
		}
		if end := (blk + n) * uint64(fs.bs); end > in.size {
			in.size = end
		}
		return fs.writeInode(ctx, ino)
	})
}

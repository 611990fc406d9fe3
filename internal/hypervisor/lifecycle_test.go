package hypervisor

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"nesc/internal/extfs"
	"nesc/internal/sim"
)

// The VF lifecycle matrix (DESIGN.md §7): a transition in flight on VF A
// against one arriving on the same VF while it runs, the arrival swept across
// the instants the in-flight one parks at. VF B exports the same image, so
// every remap and invalidation has a second sharer to reach and a teardown a
// second VF to take down; and a guest write into a hole lands 2 µs into every
// in-flight transition, so a miss arrives while the transition holds A's lock.

const (
	lcImage  = "/lc.img"
	lcUID    = 100
	lcBlocks = 256 // [0, 128) allocated, [128, 256) holes
	// lcPoints is how many of an in-flight transition's instants each arrival
	// is swept across.
	lcPoints = 24
	// lcLimit is the virtual time by which every cell must have drained.
	lcLimit = 50 * sim.Millisecond
)

// lcScene is one run of a cell: the world, the two VMs, A's VF, and the guest
// writes acknowledged so far (block → fill byte), each to a block of its own.
type lcScene struct {
	w     *world
	a, b  *VM
	idx   int
	acked map[int64]byte
}

// write has the guest write fill over block blk through A and records the
// write once it is acknowledged.
func (s *lcScene) write(p *sim.Proc, blk int64, fill byte) {
	buf := s.a.Kernel.AllocBuffer(1024)
	for i := range buf.Data {
		buf.Data[i] = fill
	}
	if s.a.Kernel.SubmitAligned(p, true, blk, buf) == nil {
		s.acked[blk] = fill
	}
}

// lcOp is a transition as the matrix starts it: prep readies the scene (an
// in-flight transition's precondition), run is the transition. Their errors
// are not the matrix's business — a transition arriving after a teardown
// fails by design — only what they leave behind is.
type lcOp struct {
	name string
	prep func(s *lcScene, p *sim.Proc) error
	run  func(s *lcScene, p *sim.Proc)
}

// lcSnapshotBase write-protects A's image with a snapshot that stays.
func lcSnapshotBase(s *lcScene, p *sim.Proc) error {
	return s.w.d.SnapshotVF(p, s.idx, "/lc.base", lcUID)
}

var (
	lcMigration = lcOp{name: "migration", run: func(s *lcScene, p *sim.Proc) { s.w.d.MigrateVFFile(p, s.idx) }}
	lcFLR       = lcOp{name: "flr", run: func(s *lcScene, p *sim.Proc) { s.w.d.ResetVF(p, s.idx) }}

	lcInFlight = []lcOp{
		{name: "snapshot", run: func(s *lcScene, p *sim.Proc) { s.w.d.SnapshotVF(p, s.idx, "/lc.snap", lcUID) }},
		lcMigration,
		{name: "lazy-miss", run: func(s *lcScene, p *sim.Proc) { s.write(p, 200, 0xA1) }},
		{name: "cow-miss", prep: lcSnapshotBase, run: func(s *lcScene, p *sim.Proc) { s.write(p, 20, 0xC1) }},
		{name: "unprotect", prep: func(s *lcScene, p *sim.Proc) error {
			// Protected extents and nothing shared: what Unprotect undoes.
			if err := lcSnapshotBase(s, p); err != nil {
				return err
			}
			return s.w.d.DeleteSnapshot(p, "/lc.base", lcUID)
		}, run: func(s *lcScene, p *sim.Proc) { s.w.d.Unprotect(p, lcImage) }},
		lcFLR,
	}
	lcArrivals = []lcOp{
		{name: "teardown", run: func(s *lcScene, p *sim.Proc) { s.b.Teardown(p); s.a.Teardown(p) }},
		lcFLR,
		{name: "snapshot", run: func(s *lcScene, p *sim.Proc) { s.w.d.SnapshotVF(p, s.idx, "/lc.arrive", lcUID) }},
		lcMigration,
	}
)

// lcRecorded holds, per in-flight transition, the instants (in ns of virtual
// time) it parked at under earlier cost models: first before a miss became one
// host-filesystem call on the exported file, then before a host transaction's
// journal record became one write, then (for the two miss transitions) before
// a missed chunk parked on its VF instead of holding a walker. A change to the
// cost model or to the walker's scheduling moves where a transition parks;
// each arrival is swept across these instants as well as the current ones, so
// the sweep widens as the model changes instead of moving, and every cell the
// matrix has run stays in it under its name.
var lcRecorded = map[string][]sim.Time{
	"snapshot": {
		1067984, 1074379, 1084831, 1089711, 1092724, 1096198, 1099214, 1102227,
		1105282, 1108625, 1118483, 1129924, 1138703, 1147528, 1157737, 1166885,
		1178043, 1186968, 1195796, 1206297, 1217433, 1226291, 1236408, 1240622,
		// before a host transaction's record became one write
		1050782, 1058452, 1063465, 1066490, 1069414, 1072338, 1075262, 1078186,
		1081110, 1084453, 1093792, 1105021, 1113600, 1122308, 1130533, 1139261,
		1148650, 1157670, 1168206, 1176864, 1185572, 1193797, 1202525, 1206218,
	},
	"migration": {
		1067984, 1085444, 1101354, 1116714, 1132294, 1149570, 1178378, 1186600,
		1194772, 1203324, 1211585, 1226722, 1242632, 1257992, 1273572, 1290210,
		1320041, 1328302, 1336762, 1344984, 1353575, 1366804, 1392821, 1419388,
		// before a host transaction's record became one write
		1050782, 1064637, 1079743, 1095103, 1110243, 1145101, 1154387, 1162559,
		1170600, 1178641, 1187101, 1201819, 1217179, 1232285, 1247645, 1262785,
		1293896, 1302356, 1310397, 1318530, 1326571, 1336074, 1360910, 1384984,
	},
	"lazy-miss": {
		1067984, 1072162, 1073219, 1074539, 1077254, 1089321, 1092755, 1097250,
		1103291, 1105978, 1111949, 1115367, 1120057, 1123487, 1128782, 1132423,
		1137010, 1143431, 1145518, 1153161, 1156584, 1158262, 1160282, 1164510,
		// before a host transaction's record became one write
		1050782, 1054360, 1055417, 1056452, 1058017, 1067852, 1072030, 1074860,
		1079938, 1082556, 1087246, 1090464, 1094954, 1097441, 1102862, 1104799,
		1110620, 1112707, 1117928, 1120015, 1123508, 1124743, 1126263, 1130106,
		// before a missed chunk parked on its VF and freed its walker
		987341, 990569, 991836, 991976, 992919, 993836, 994811, 996611,
		1007639, 1008806, 1011207, 1015331, 1017098, 1018568, 1020230, 1022804,
		1023254, 1024339, 1025309, 1026032, 1026982, 1027299, 1028669, 1030840,
	},
	"cow-miss": {
		1240722, 1245117, 1246300, 1248242, 1261842, 1268743, 1273194, 1278509,
		1285280, 1291638, 1296018, 1301633, 1308404, 1312862, 1319530, 1325137,
		1331928, 1336458, 1341773, 1350433, 1354217, 1354967, 1356537, 1361665,
		// before a host transaction's record became one write
		1206318, 1210496, 1211696, 1212953, 1225888, 1229849, 1235267, 1239125,
		1244312, 1250483, 1254813, 1259528, 1266099, 1269729, 1275124, 1281765,
		1285333, 1290840, 1296981, 1300218, 1302861, 1303511, 1305066, 1310059,
		// before a missed chunk parked on its VF and freed its walker
		1061043, 1063543, 1065158, 1066271, 1067438, 1068713, 1072146, 1076600,
		1080374, 1086945, 1090575, 1095970, 1104283, 1107856, 1113279, 1119932,
		1122619, 1125470, 1128486, 1129186, 1130656, 1131714, 1133451, 1136172,
	},
	"unprotect": {
		1321188, 1325688, 1326438, 1327355, 1327743, 1328899, 1330658, 1334067,
		1335404, 1338597, 1342175, 1343912, 1346505, 1350083, 1351820, 1354541,
		1358591, 1360278, 1366621, 1368388, 1370794, 1372172, 1372572, 1372922,
		// before a host transaction's record became one write
		1286784, 1288784, 1291812, 1292362, 1292979, 1293299, 1294019, 1294684,
		1296484, 1299720, 1300670, 1301807, 1304400, 1307778, 1308795, 1310265,
		1312436, 1315686, 1316803, 1319104, 1320366, 1320716, 1321016, 1321316,
	},
	"flr": {
		1067984, 1068134, 1068334, 1069034, 1069184, 1069334, 1069384,
		// before a host transaction's record became one write
		1050782, 1050932, 1051132, 1051832, 1051982, 1052132, 1052182,
	},
}

// lcRun plays one cell: the scene, then from t0 the in-flight transition and
// the hole write, and arr (if any) at virtual time at. It fails t unless the
// run leaves no panic, an engine that drains, a clean host filesystem, every
// tree's sharer list — its reference count — equal to the VFs that export it,
// and every acknowledged guest write in the host file. It returns the distinct
// instants events ran at while the in-flight transition was running.
func lcRun(t *testing.T, in lcOp, arr *lcOp, at sim.Time) (instants []sim.Time) {
	t.Helper()
	w := newWorld(t, 8192, nil)
	s := &lcScene{w: w, acked: make(map[int64]byte)}
	started, done := false, false
	w.eng.Go("main", func(p *sim.Proc) {
		if err := s.setup(p, in); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		started = true
		w.eng.Go("in-flight", func(q *sim.Proc) {
			in.run(s, q)
			done = true
		})
		w.eng.Go("hole-writer", func(q *sim.Proc) {
			q.Sleep(2 * sim.Microsecond)
			s.write(q, 150, 0x5A)
		})
		if arr != nil {
			w.eng.Go("arrival", func(q *sim.Proc) {
				q.Sleep(at - q.Now())
				arr.run(s, q)
			})
		}
	})
	if !lcDrain(t, w.eng, func() {
		if started && !done && (len(instants) == 0 || instants[len(instants)-1] != w.eng.Now()) {
			instants = append(instants, w.eng.Now())
		}
	}) {
		return nil
	}
	w.eng.Go("check", func(p *sim.Proc) {
		if err := w.d.HostFS.Check(p); err != nil {
			t.Errorf("host fsck: %v", err)
		}
		f, err := w.d.HostFS.Open(p, lcImage, 0, extfs.PermRead)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 1024)
		for blk, fill := range s.acked {
			if _, err := f.ReadAt(p, got, blk*1024); err != nil && err != io.EOF {
				t.Error(err)
			} else if !bytes.Equal(got, bytes.Repeat([]byte{fill}, 1024)) {
				t.Errorf("acknowledged write of %#x to block %d is not in the host file", fill, blk)
			}
		}
	})
	if lcDrain(t, w.eng, func() {}) {
		w.eng.Shutdown()
	}
	lcCheckSharers(t, w.d)
	return instants
}

// setup boots the world, makes the half-allocated image, exports it through
// A and B, writes blocks 0-7 through A, and runs in's prep.
func (s *lcScene) setup(p *sim.Proc, in lcOp) error {
	w := s.w
	if err := w.h.Boot(p, true, extfs.Params{InodeCount: 128, JournalBlocks: 64, Mode: extfs.JournalMetadata}); err != nil {
		return err
	}
	if _, err := w.d.MkImage(p, lcImage, lcUID, lcBlocks, true); err != nil {
		return err
	}
	f, err := w.d.HostFS.Open(p, lcImage, lcUID, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		return err
	}
	if err := f.Allocate(p, 0, lcBlocks/2); err != nil {
		return err
	}
	if s.a, err = w.h.NewVM(p, "a", VMConfig{Backend: BackendDirect, DiskPath: lcImage, UID: lcUID}); err != nil {
		return err
	}
	if s.b, err = w.h.NewVM(p, "b", VMConfig{Backend: BackendDirect, DiskPath: lcImage, UID: lcUID}); err != nil {
		return err
	}
	s.idx = s.a.Legs[0].VFIdx
	for blk := int64(0); blk < 8; blk++ {
		s.write(p, blk, byte(0x10+blk))
	}
	if in.prep != nil {
		return in.prep(s, p)
	}
	return nil
}

// lcDrain steps eng until no event is left, calling each after every step. It
// reports false — having failed t — on a panic out of the simulation or on an
// engine still busy at lcLimit.
func lcDrain(t *testing.T, eng *sim.Engine, each func()) (ok bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("panic at %v: %v", eng.Now(), r)
			ok = false
		}
	}()
	for eng.Step() {
		if eng.Now() > lcLimit {
			t.Errorf("engine still busy at %v", eng.Now())
			return false
		}
		each()
	}
	return true
}

// lcCheckSharers holds every tree's sharer list to the VF records: a tree
// lists, in index order, exactly the VFs whose records export it, a file's
// tree is the one its path names, and the SR-IOV enable count is the number
// of exporting records.
func lcCheckSharers(t *testing.T, d *Device) {
	t.Helper()
	n := 0
	for idx, st := range d.vfs {
		if st == nil || st.shared == nil {
			continue
		}
		n++
		sh := st.shared
		if sh.file != nil && d.trees[sh.path] != sh || !slices.Contains(sh.vfs, idx) {
			t.Errorf("VF %d exports a tree that does not list it", idx)
		}
	}
	for key, sh := range d.trees {
		if len(sh.vfs) == 0 || !slices.IsSorted(sh.vfs) {
			t.Errorf("tree %q lists sharers %v", key, sh.vfs)
		}
		for _, idx := range sh.vfs {
			if st := d.vfAt(idx); st == nil || st.shared != sh {
				t.Errorf("tree %q lists VF %d, which does not export it", key, idx)
			}
		}
	}
	if got := d.Ctl.SRIOV().NumEnabled; got != n {
		t.Errorf("%d VFs export something, %d enabled", n, got)
	}
}

// Unprotect's re-validation: a snapshot taken while it waits for the VF's lock
// shares the image's blocks again, so it must find nothing to do rather than
// run BreakShare, which would copy every one of them.
func TestUnprotectRechecksSharingUnderTheLock(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/u.img", 100, 64)
		vm, err := w.h.NewVM(p, "u", VMConfig{Backend: BackendDirect, DiskPath: "/u.img", UID: 100})
		if err != nil {
			t.Fatal(err)
		}
		idx := vm.Legs[0].VFIdx
		// Protected extents and nothing shared: what Unprotect undoes.
		if err := w.d.SnapshotVF(p, idx, "/u.old", 100); err != nil {
			t.Fatal(err)
		}
		if err := w.d.DeleteSnapshot(p, "/u.old", 100); err != nil {
			t.Fatal(err)
		}
		w.eng.Go("snapshot", func(q *sim.Proc) {
			if err := w.d.SnapshotVF(q, idx, "/u.snap", 100); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(sim.Microsecond) // the snapshot holds the VF's lock
		if w.d.HostFS.SharedBlocks() != 0 {
			t.Fatal("the snapshot shared blocks before Unprotect was called")
		}
		if err := w.d.Unprotect(p, "/u.img"); err != nil {
			t.Fatal(err)
		}
		if got := w.d.HostFS.SharedBlocks(); got != 64 {
			t.Fatalf("%d of the image's 64 blocks shared with the snapshot: Unprotect copied the rest", got)
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestVFLifecycleMatrix(t *testing.T) {
	for _, in := range lcInFlight {
		t.Run(in.name, func(t *testing.T) {
			instants := lcRun(t, in, nil, 0)
			if len(instants) == 0 {
				t.Fatal("the in-flight transition never ran")
			}
			points := slices.Clone(lcRecorded[in.name])
			for i := 0; i < lcPoints; i++ {
				if at := instants[i*(len(instants)-1)/(lcPoints-1)]; !slices.Contains(points, at) {
					points = append(points, at)
				}
			}
			for _, arr := range lcArrivals {
				t.Run(arr.name, func(t *testing.T) {
					for _, at := range points {
						if !t.Run(fmt.Sprint(at), func(t *testing.T) { lcRun(t, in, &arr, at) }) {
							return
						}
					}
				})
			}
		})
	}
}

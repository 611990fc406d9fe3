package guest

import (
	"fmt"

	"nesc/internal/sim"
)

// EmulPort is the trapped register interface of a fully emulated disk
// (paper Fig. 1a). Every call is a trapped device access: the hypervisor
// implementation charges the vmexit/vmenter pair and the emulation work.
// The register set models an IDE-style controller in DMA mode: the driver
// programs the command block (several trapped writes), the CMD write makes
// the device model execute the whole transfer against the backing store,
// and a final trapped status read completes the request. Latency is
// dominated by the fixed trap/emulation overhead, so small requests are
// ~20x slower than NeSC while large transfers close to within the data-copy
// cost — the paper's Figure 9/10 emulation shape.
type EmulPort interface {
	WriteReg(p *sim.Proc, reg int, val uint64)
	ReadReg(p *sim.Proc, reg int) uint64
}

// Emulated-disk register numbers (an ATA-flavoured command block).
const (
	EmulRegLBA    = 0 // starting sector
	EmulRegCount  = 1 // sector count
	EmulRegBuf    = 2 // DMA buffer address (guest physical)
	EmulRegFeat   = 3 // features (ignored; costs a trap, as on real hardware)
	EmulRegDrive  = 4 // drive select (ignored)
	EmulRegCmd    = 5 // command: executes the transfer
	EmulRegStatus = 6

	EmulCmdRead  = 1
	EmulCmdWrite = 2

	EmulStatusOK  = 0
	EmulStatusErr = 1

	// EmulSector is the device's addressing unit.
	EmulSector = 512
)

// EmulDriver is the guest driver for the emulated disk.
type EmulDriver struct {
	port EmulPort
	bs   int
	cap  int64
	// SubmitTime is the driver CPU cost per request.
	SubmitTime sim.Time
	// Traps counts trapped accesses (diagnostics).
	Traps int64
}

// emulMaxBlocksPerReq is the emulated disk's largest single command (128 KB).
const emulMaxBlocksPerReq = 128

// EmulDriverConfig configures construction.
type EmulDriverConfig struct {
	Port           EmulPort
	CapacityBlocks int64
	BlockSize      int
	SubmitTime     sim.Time
}

// NewEmulDriver builds the guest half of the emulated disk.
func NewEmulDriver(cfg EmulDriverConfig) *EmulDriver {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1024
	}
	return &EmulDriver{
		port:       cfg.Port,
		bs:         cfg.BlockSize,
		cap:        cfg.CapacityBlocks,
		SubmitTime: cfg.SubmitTime,
	}
}

// BlockSize implements BlockDriver.
func (d *EmulDriver) BlockSize() int { return d.bs }

// CapacityBlocks implements BlockDriver.
func (d *EmulDriver) CapacityBlocks() int64 { return d.cap }

// MaxBlocksPerReq implements BlockDriver.
func (d *EmulDriver) MaxBlocksPerReq() int { return emulMaxBlocksPerReq }

// Submit implements BlockDriver: program the command block (each register
// write traps), fire the command, and poll status.
func (d *EmulDriver) Submit(p *sim.Proc, write bool, lba int64, buf Buffer) error {
	if len(buf.Data)%d.bs != 0 {
		return fmt.Errorf("emul driver: unaligned buffer of %d bytes", len(buf.Data))
	}
	p.Sleep(d.SubmitTime)
	sectors := len(buf.Data) / EmulSector
	sectorLBA := uint64(lba) * uint64(d.bs/EmulSector)
	cmd := uint64(EmulCmdRead)
	if write {
		cmd = EmulCmdWrite
	}
	d.port.WriteReg(p, EmulRegLBA, sectorLBA)
	d.port.WriteReg(p, EmulRegCount, uint64(sectors))
	d.port.WriteReg(p, EmulRegBuf, uint64(buf.Addr))
	d.port.WriteReg(p, EmulRegFeat, 0)
	d.port.WriteReg(p, EmulRegDrive, 0)
	d.port.WriteReg(p, EmulRegCmd, cmd)
	st := d.port.ReadReg(p, EmulRegStatus)
	d.Traps += 7
	if st != EmulStatusOK {
		return fmt.Errorf("emul driver: device status %d", st)
	}
	return nil
}

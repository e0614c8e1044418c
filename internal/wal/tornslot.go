package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/reprolab/face/internal/device"
)

// Torn-tail protection (pipeline stage 3).
//
// The log rewrites its partial tail block in place as records are appended
// to it.  On a device without atomic 4 KiB writes, a host crash during
// that rewrite can tear the block and clip records that were already
// acknowledged as durable.  The fix is a full-page-write-style double-write
// slot in the two blocks at the end of the log device: before the in-place
// rewrite, the new block image is written to the slot and synced; Open
// consults the slot before scanning for the log end and restores the image
// if the in-place copy was torn.  Either the slot write or the in-place
// write is intact at any crash point, and both contain every acknowledged
// byte, so the durable prefix always survives.
//
// The slot lives at the device end — not in the control region — so the
// LSN-to-block mapping of existing logs is unchanged.  It is only active
// (`Manager.protect`) on devices with a real durability barrier
// (device.Syncer); simulated devices model atomic block writes and skip
// the extra staging I/O.

// tornSlotBlocks is the slot size: one metadata block, one data block.
const tornSlotBlocks = 2

// tornMagic identifies a valid slot metadata block.
const tornMagic = 0xFACE7012

// Slot metadata layout (little-endian):
//
//	[0:4)   tornMagic
//	[4:12)  target block number
//	[12:16) CRC32-C of the staged block image
//	[16:20) CRC32-C of bytes [0:16) — a torn slot write invalidates itself
const tornMetaLen = 20

// slotMetaBlk/slotDataBlk locate the slot; valid only when m.protect.
func (m *Manager) slotMetaBlk() int64 { return m.dataBlocks }
func (m *Manager) slotDataBlk() int64 { return m.dataBlocks + 1 }

// writeTornSlot stages the new image of targetBlk in the double-write slot
// and syncs it, so the subsequent in-place rewrite can tear without losing
// acknowledged bytes.
func (m *Manager) writeTornSlot(targetBlk int64, image []byte) error {
	// Only the flushing goroutine gets here (the syncer, or the compat
	// front end under its mutex), the device copies what it is handed, and
	// bytes past tornMetaLen stay zero, so one metadata block is reused.
	meta := m.tornMeta
	binary.LittleEndian.PutUint32(meta[0:], tornMagic)
	binary.LittleEndian.PutUint64(meta[4:], uint64(targetBlk))
	binary.LittleEndian.PutUint32(meta[12:], crc32.Checksum(image, crcTable))
	binary.LittleEndian.PutUint32(meta[16:], crc32.Checksum(meta[0:16], crcTable))
	if err := m.dev.WriteRun(m.slotMetaBlk(), [][]byte{meta, image}); err != nil {
		return fmt.Errorf("wal: writing torn-tail slot: %w", err)
	}
	if err := m.syncDevice(); err != nil {
		return fmt.Errorf("wal: syncing torn-tail slot: %w", err)
	}
	m.tornSlotWrites.Add(1)
	return nil
}

// invalidateTornSlot clears the slot so a stale image from a previous log
// incarnation on the same device can never repair a block of this log.
func (m *Manager) invalidateTornSlot() error {
	if err := m.dev.WriteAt(m.slotMetaBlk(), make([]byte, device.BlockSize)); err != nil {
		return fmt.Errorf("wal: clearing torn-tail slot: %w", err)
	}
	return device.Sync(m.dev)
}

// repairTornTail restores the staged tail-block image if the slot holds a
// valid one that differs from the device's current content.  Called at
// Open before the end-of-log scan.  Idempotent: the slot always holds the
// image written by the most recent staged flush of its target block, which
// is at least as new as the last acknowledged durable state of that block,
// so rewriting it is always safe.
func (m *Manager) repairTornTail() error {
	meta := make([]byte, device.BlockSize)
	if err := m.dev.ReadAt(m.slotMetaBlk(), meta); err != nil {
		return fmt.Errorf("wal: reading torn-tail slot: %w", err)
	}
	if binary.LittleEndian.Uint32(meta[0:]) != tornMagic {
		return nil
	}
	if crc32.Checksum(meta[0:16], crcTable) != binary.LittleEndian.Uint32(meta[16:]) {
		return nil // the slot write itself was torn: the in-place copy is intact
	}
	targetBlk := int64(binary.LittleEndian.Uint64(meta[4:]))
	if targetBlk < controlBlocks || targetBlk >= m.dataBlocks {
		return nil
	}
	image := make([]byte, device.BlockSize)
	if err := m.dev.ReadAt(m.slotDataBlk(), image); err != nil {
		return fmt.Errorf("wal: reading torn-tail slot image: %w", err)
	}
	if crc32.Checksum(image, crcTable) != binary.LittleEndian.Uint32(meta[12:]) {
		return nil
	}
	current := make([]byte, device.BlockSize)
	if err := m.dev.ReadAt(targetBlk, current); err != nil {
		return fmt.Errorf("wal: reading torn tail block: %w", err)
	}
	if bytes.Equal(current, image) {
		return nil
	}
	if err := m.dev.WriteAt(targetBlk, image); err != nil {
		return fmt.Errorf("wal: repairing torn tail block: %w", err)
	}
	return device.Sync(m.dev)
}

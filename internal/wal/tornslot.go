package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/reprolab/face/internal/device"
)

// Torn-tail protection: the partial log tail ping-pongs between two entries.
//
// A device with a durability barrier (device.Syncer) does not write 4 KiB
// atomically: a crash can leave the block being written half new, or
// unreadable.  So there a log block is written in place exactly once, when
// it is full, and the image of the partial tail block goes to one of two
// checksummed entries in the four blocks at the device end — always the one
// that does NOT hold the newest image a successful barrier has covered
// (tailDurable).  A flush round is the in-place run of full blocks (if
// any), one entry write and one barrier, and whatever a crash tears — a
// full block nobody was told is durable, or the entry being written — the
// acknowledged bytes of the tail block are intact in the other entry.  A
// failed barrier, or a ring-drain round that issues none, leaves
// tailDurable alone: the next round overwrites the same entry again.
//
// Open copies the entries into place before anything reads the log
// (repairTail), so the end-of-log scan, Iterate and recovery read log
// blocks only; until then the partial tail's bytes are in an entry, not in
// the block.  The entries sit at the device end, so LSNs map to blocks as
// on a device without them.  Simulated devices have no barrier, model atomic
// block writes and rewrite the partial tail in place (protect is false).

const (
	// tailEntryBlocks is the size of one entry: header and bytes fit one
	// block while the tail is short, two otherwise.
	tailEntryBlocks = 2
	tornSlotBlocks  = 2 * tailEntryBlocks

	tailMagic = 0xFACE7013

	// Entry layout (little-endian), followed by the used bytes:
	//
	//	[0:4)   tailMagic
	//	[4:12)  sequence number; every entry write takes the next one
	//	[12:20) target block number
	//	[20:24) used: how many leading bytes of the target block follow
	//	[24:28) CRC32-C of bytes [0:24) and of the used bytes
	tailHeaderLen = 28
)

// tailEntry is one decoded entry.
type tailEntry struct {
	idx    int
	seq    uint64
	target int64
	image  []byte
}

func (m *Manager) tailEntryBlk(idx int) int64 { return m.dataBlocks + int64(idx*tailEntryBlocks) }

func tailCRC(b []byte) uint32 {
	return crc32.Update(crc32.Checksum(b[:24], crcTable), crcTable, b[tailHeaderLen:])
}

// writeTailEntry writes the image of the partial block targetBlk to the
// entry that does not hold the newest barrier-covered image.  Only the
// flusher gets here (the syncer, or Open before it starts), and the device
// copies what it is handed, so one buffer is reused.
func (m *Manager) writeTailEntry(targetBlk int64, image []byte) error {
	buf := m.tailBuf
	m.tailSeq++
	binary.LittleEndian.PutUint32(buf[0:], tailMagic)
	binary.LittleEndian.PutUint64(buf[4:], m.tailSeq)
	binary.LittleEndian.PutUint64(buf[12:], uint64(targetBlk))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(image)))
	end := tailHeaderLen + copy(buf[tailHeaderLen:], image)
	binary.LittleEndian.PutUint32(buf[24:], tailCRC(buf[:end]))
	pages := [][]byte{buf[:device.BlockSize], buf[device.BlockSize:]}[:(end+device.BlockSize-1)/device.BlockSize]
	clear(buf[end : len(pages)*device.BlockSize])
	if err := m.dev.WriteRun(m.tailEntryBlk(m.tailDurable^1), pages); err != nil {
		return fmt.Errorf("wal: writing log tail entry: %w", err)
	}
	m.tailPending = true
	m.tornSlotWrites.Add(1)
	return nil
}

// readTailEntry decodes entry idx; ok is false for an entry that was never
// written, was torn, or names a block outside the log.
func (m *Manager) readTailEntry(idx int) (e tailEntry, ok bool, err error) {
	buf := make([]byte, tailEntryBlocks*device.BlockSize)
	if err := m.dev.ReadAt(m.tailEntryBlk(idx), buf); err != nil {
		return e, false, fmt.Errorf("wal: reading log tail entry: %w", err)
	}
	e = tailEntry{idx: idx, seq: binary.LittleEndian.Uint64(buf[4:]), target: int64(binary.LittleEndian.Uint64(buf[12:]))}
	end := tailHeaderLen + int(binary.LittleEndian.Uint32(buf[20:]))
	if binary.LittleEndian.Uint32(buf[0:]) != tailMagic || end <= tailHeaderLen || end >= tailHeaderLen+device.BlockSize ||
		e.target < controlBlocks || e.target >= m.dataBlocks {
		return e, false, nil
	}
	if end > device.BlockSize {
		if err := m.dev.ReadAt(m.tailEntryBlk(idx)+1, buf[device.BlockSize:]); err != nil {
			return e, false, fmt.Errorf("wal: reading log tail entry: %w", err)
		}
	}
	e.image = buf[tailHeaderLen:end]
	return e, tailCRC(buf[:end]) == binary.LittleEndian.Uint32(buf[24:]), nil
}

// invalidateTailEntries clears both entries so an image left by a previous
// log incarnation on the same device can never repair a block of this log.
func (m *Manager) invalidateTailEntries() error {
	zero := make([]byte, device.BlockSize)
	for idx := 0; idx < 2; idx++ {
		if err := m.dev.WriteAt(m.tailEntryBlk(idx), zero); err != nil {
			return fmt.Errorf("wal: clearing log tail entry: %w", err)
		}
	}
	return device.Sync(m.dev)
}

// repairTail copies the valid entries into place — the older first, a
// target block that already begins with the entry's bytes left alone (all
// images of one block are prefixes of one another) — syncs, and makes the
// newest entry, which it returns (target 0: none), the one the next round
// must not overwrite.  Called at Open before the end-of-log scan.
func (m *Manager) repairTail() (newest tailEntry, err error) {
	var valid []tailEntry
	for idx := 0; m.protect && idx < 2; idx++ {
		e, ok, err := m.readTailEntry(idx)
		if err != nil {
			return newest, err
		}
		if ok && e.seq > newest.seq {
			newest = e
			valid = append(valid, e)
		} else if ok {
			valid = []tailEntry{e, newest}
		}
	}
	repaired := false
	cur := make([]byte, device.BlockSize)
	for _, e := range valid {
		if e.target == newest.target && e.seq != newest.seq {
			continue // the newer image of the same block begins with this one
		}
		if err := m.dev.ReadAt(e.target, cur); err != nil {
			return newest, fmt.Errorf("wal: reading log tail block: %w", err)
		}
		if bytes.HasPrefix(cur, e.image) {
			continue
		}
		clear(cur[copy(cur, e.image):])
		if err := m.dev.WriteAt(e.target, cur); err != nil {
			return newest, fmt.Errorf("wal: repairing log tail block: %w", err)
		}
		repaired = true
	}
	m.tailSeq, m.tailDurable = newest.seq, newest.idx
	if repaired {
		return newest, device.Sync(m.dev)
	}
	return newest, nil
}

// stageRecoveredTail runs at Open after the scan.  A partial tail that is
// not exactly the newest entry's image — unsynced in-place writes survived
// the crash, or that entry lies beyond a torn block — is held by the log
// block alone, which the round that fills it would rewrite in place: stage
// it first.
func (m *Manager) stageRecoveredTail(newest tailEntry, partial []byte) error {
	tailBlk := int64(m.off(m.Durable())/device.BlockSize) + controlBlocks
	if !m.protect || len(partial) == 0 || (newest.target == tailBlk && len(newest.image) == len(partial)) {
		return nil
	}
	if err := m.writeTailEntry(tailBlk, partial); err != nil {
		return err
	}
	return m.syncDevice()
}

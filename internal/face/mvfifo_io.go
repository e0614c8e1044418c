package face

// The I/O machinery of the mvFIFO cache manager: group writes, group
// replacement, destaging, checkpointing and recovery.  Everything here
// runs on the writer path (under wrMu); the metadata lock mu is taken only
// for the short windows that mutate queue state, never across device I/O,
// and the striped directory locks are taken nested inside mu (or alone),
// so Lookup and Contains proceed while a group write is in flight.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/reprolab/face/internal/page"
)

// enqueue appends the items to the rear of the queue, making room first if
// necessary.  Items are written to flash as one sequential run.  The
// caller holds wrMu and passes the items in m.items' storage.
//
// The caller's items are lent; the ones makeRoom adds — second-chance
// survivors and pulled DRAM victims — are the writer path's own, and their
// images go home once the new frames are published.
func (m *MVFIFO) enqueue(items []stageItem) error {
	if len(items) == 0 {
		return nil
	}
	lent := len(items)
	// Keep the list's storage, grown or not, but none of the images.
	defer func() {
		clear(items)
		m.items = items[:0]
	}()
	capacity := uint64(m.cfg.Frames)
	// Make room.  Group replacement frees GroupSize frames at a time and
	// may append survivors and pulled DRAM victims to the write group.
	for {
		m.mu.Lock()
		need := m.seq-m.front+uint64(len(items)) > capacity
		m.mu.Unlock()
		if !need {
			break
		}
		extra, err := m.makeRoom(len(items))
		if err != nil {
			return err
		}
		items = append(items, extra...)
	}

	// Reserve consecutive positions.  The reservation is published to seq
	// up front so Len reflects in-flight writes; directory entries are
	// published only after the device write completes, so lookups never
	// see a frame whose data is not on flash yet.
	m.mu.Lock()
	start := m.seq
	m.seq = start + uint64(len(items))
	front := m.front
	m.mu.Unlock()

	// Stamp and write from the staging run, not from the items' images: a
	// lent image is not ours to stamp, and a survivor's or a pulled victim's
	// is being served to lookups from the transit map.
	if need := len(items) * page.Size; cap(m.stage) < need {
		m.stage = make([]byte, need)
	}
	images := m.pages[:0]
	for i, it := range items {
		img := page.Buf(m.stage[i*page.Size : (i+1)*page.Size])
		copy(img, it.data)
		img.SetCacheStamp(uint32(start + uint64(i)))
		images = append(images, img)
	}
	m.pages = images[:0]
	if err := m.writeFrames(start, images); err != nil {
		return err
	}

	m.mu.Lock()
	m.stats.FlashPageWrites += int64(len(items))
	for i, it := range items {
		pos := start + uint64(i)
		slot := pos % capacity
		// Decide whether this item becomes the valid copy of the page.  A
		// write group may contain two versions of the same page — e.g. a
		// second-chance survivor re-enqueued after a newer incoming
		// version — so the page LSN decides which copy stays valid.  The
		// directory entry mirrors the valid copy's LSN, so the decision
		// and the publication happen together under the stripe lock.
		st := m.stripe(it.id)
		st.mu.Lock()
		newest := true
		if old, ok := st.dir[it.id]; ok {
			oldSlot := old.pos % capacity
			if m.meta[oldSlot].valid && m.meta[oldSlot].id == it.id {
				if m.meta[oldSlot].lsn > it.lsn {
					newest = false
				} else if old.pos >= m.front && old.pos < pos {
					m.meta[oldSlot].valid = false
					m.stats.Invalidations++
				}
			}
		}
		m.meta[slot] = frameMeta{id: it.id, lsn: it.lsn, valid: newest, dirty: it.dirty, used: true}
		m.refs[slot].Store(false)
		if newest {
			st.dir[it.id] = dirEntry{pos: pos, lsn: it.lsn, dirty: it.dirty}
		} else {
			m.stats.Invalidations++
		}
		// The page is reachable through the directory again, unless the
		// transit copy is newer: a second-chance survivor is published
		// before a newer version of it pulled from DRAM later in the group,
		// and lookups must keep finding the pulled one until it is published.
		if t, ok := st.transit[it.id]; ok && t.lsn <= it.lsn {
			delete(st.transit, it.id)
		}
		st.mu.Unlock()
	}
	m.mu.Unlock()
	// The transit entries were the last references to the writer path's own
	// images, and lookups copy out of them under the stripe lock.
	for _, it := range items[lent:] {
		it.home.Put(it.data)
	}

	// Persist the metadata entries.  The metadata directory is writer-path
	// state (wrMu), so segment flushes happen without blocking lookups.
	flushes := 0
	for i, it := range items {
		pos := start + uint64(i)
		n, err := m.metadir.appendEntry(metaEntry{id: it.id, lsn: it.lsn, dirty: it.dirty}, pos, front)
		flushes += n
		if err != nil {
			return err
		}
	}
	if flushes > 0 {
		m.mu.Lock()
		m.stats.MetadataFlushes += int64(flushes)
		m.mu.Unlock()
	}
	return nil
}

// makeRoom frees at least GroupSize frames (or one frame when grouping is
// disabled) from the front of the queue.  With second chance enabled it
// returns referenced frames and pulled DRAM victims to be appended to the
// caller's write group; reserve tells it how many slots the caller already
// needs so the group is not overfilled.  The caller holds wrMu.
//
// Dirty pages leaving the queue are written to disk BEFORE their directory
// entries are removed, so a concurrent lookup never misses into a stale
// disk copy.
func (m *MVFIFO) makeRoom(reserve int) ([]stageItem, error) {
	capacity := uint64(m.cfg.Frames)

	m.mu.Lock()
	group := m.cfg.GroupSize
	if count := int(m.seq - m.front); group > count {
		group = count
	}
	if group < 1 {
		m.mu.Unlock()
		return nil, fmt.Errorf("face: internal error: empty queue in makeRoom")
	}
	front := m.front
	// Snapshot the group's metadata and reference bits.  Only writers
	// mutate the metadata and they are serialized by wrMu; concurrent
	// lookups may still set reference bits, but a reference arriving after
	// this point no longer saves the frame (the same race exists on a real
	// system between the replacement decision and the I/O it issues).
	metas, refs, want, frames := m.room.metas[:group], m.room.refs[:group], m.room.want[:group], m.room.frames[:group]
	clear(frames)
	needData := false
	for i := 0; i < group; i++ {
		slot := (front + uint64(i)) % capacity
		metas[i] = m.meta[slot]
		refs[i] = m.refs[slot].Load()
		// The frames whose bytes are needed: the ones going to disk and the
		// ones going round again.
		want[i] = metas[i].valid && (metas[i].dirty || (m.cfg.SecondChance && refs[i]))
		needData = needData || want[i]
	}
	m.mu.Unlock()

	if needData {
		if err := m.readFrames(front, want, frames); err != nil {
			return nil, err
		}
		m.mu.Lock()
		m.stats.FlashPageReads += int64(group)
		m.mu.Unlock()
	}

	// Issue the stage-outs.  readFrames filled private images; one written
	// to disk is finished with when the write returns.
	survivors := m.room.survivors[:0] // survivors and pulled victims together never exceed the group
	for i := 0; i < group; i++ {
		fm := metas[i]
		if !fm.valid {
			continue
		}
		switch {
		case m.cfg.SecondChance && refs[i]:
			// Second chance: re-enqueue regardless of dirtiness.
			survivors = append(survivors, stageItem{id: fm.id, data: frames[i], home: m.images, dirty: fm.dirty, lsn: fm.lsn})
		case fm.dirty:
			if err := m.destageOut(fm.id, frames[i]); err != nil {
				return nil, err
			}
			m.images.Put(frames[i])
		}
	}

	// Publish: clear the group's metadata, remove the directory entries
	// pointing into the recycled window, and advance the front.  From here
	// on the freed slots may be rewritten; a lookup racing a rewrite fails
	// revalidation because its directory entry was removed (or repointed)
	// under the stripe lock first.  Survivors stay reachable through the
	// transit map until the caller's re-enqueue publishes their new frames.
	m.mu.Lock()
	for _, s := range survivors {
		st := m.stripe(s.id)
		st.mu.Lock()
		st.transit[s.id] = s
		st.mu.Unlock()
	}
	for i := 0; i < group; i++ {
		pos := front + uint64(i)
		slot := pos % capacity
		fm := &m.meta[slot]
		if fm.valid {
			if m.cfg.SecondChance && refs[i] {
				m.stats.SecondChances++
			}
			// Drop the directory entry for the recycled position whether
			// the frame is staged out or re-enqueued: survivors are served
			// from the transit map until their new position is published.
			st := m.stripe(fm.id)
			st.mu.Lock()
			if cur, ok := st.dir[fm.id]; ok && cur.pos == pos {
				delete(st.dir, fm.id)
			}
			st.mu.Unlock()
		}
		*fm = frameMeta{}
		m.refs[slot].Store(false)
	}
	m.front = front + uint64(group)
	m.mu.Unlock()

	// If every frame survived, force the oldest one out to guarantee
	// progress (paper: "the page at the very front end will be discarded
	// or flushed to disk").
	maxKeep := group - reserve
	if maxKeep < 0 {
		maxKeep = 0
	}
	for len(survivors) > maxKeep {
		victim := survivors[0]
		survivors = survivors[1:]
		if victim.dirty {
			if err := m.destageOut(victim.id, victim.data); err != nil {
				return nil, err
			}
		}
		// The victim is current on disk now.
		st := m.stripe(victim.id)
		st.mu.Lock()
		delete(st.transit, victim.id)
		st.mu.Unlock()
		victim.home.Put(victim.data)
	}
	// Survivors will be re-enqueued by the caller, which publishes their
	// new directory entries.

	// Top up the write group with victims pulled from the DRAM buffer.
	if want := group - reserve - len(survivors); m.cfg.SecondChance && m.cfg.Pull != nil && want > 0 {
		m.cfg.Pull(want, func(pulled []PulledPage) {
			m.mu.Lock()
			defer m.mu.Unlock()
			for _, p := range pulled {
				m.stats.Pulled++
				m.stats.StageIns++
				if p.Dirty {
					m.stats.DirtyStageIns++
				} else {
					m.stats.CleanStageIns++
				}
				st := m.stripe(p.ID)
				st.mu.Lock()
				if !p.FDirty {
					_, cached := st.dir[p.ID]
					if !cached {
						_, cached = st.transit[p.ID]
					}
					if cached {
						st.mu.Unlock()
						p.Home.Put(p.Data)
						continue
					}
				}
				it := stageItem{id: p.ID, data: p.Data, home: p.Home, dirty: p.Dirty, lsn: p.Data.LSN()}
				survivors = append(survivors, it)
				// The pulled victim has already left the DRAM buffer, which
				// holds misses on it off until this function returns; from
				// then until its new frame is published it is reachable here.
				st.transit[p.ID] = it
				st.mu.Unlock()
			}
		})
	}
	return survivors, nil
}

// destageOut writes a dirty page leaving the queue to its disk home
// through the DiskWrite callback, which is lent the image.
func (m *MVFIFO) destageOut(id page.ID, data page.Buf) error {
	if err := m.cfg.DiskWrite(id, data); err != nil {
		return fmt.Errorf("face: staging out page %d: %w", id, err)
	}
	m.mu.Lock()
	m.stats.DiskPageWrites++
	m.mu.Unlock()
	return nil
}

// writeFrames writes consecutive queue positions starting at start,
// splitting the run where the circular queue wraps around.
func (m *MVFIFO) writeFrames(start uint64, images [][]byte) error {
	capacity := uint64(m.cfg.Frames)
	i := 0
	for i < len(images) {
		slot := (start + uint64(i)) % capacity
		run := int(capacity - slot)
		if run > len(images)-i {
			run = len(images) - i
		}
		if run == 1 {
			if err := m.cfg.Dev.WriteAt(m.layout.frameBlock(slot), images[i]); err != nil {
				return fmt.Errorf("face: writing frame %d: %w", slot, err)
			}
		} else {
			if err := m.cfg.Dev.WriteRun(m.layout.frameBlock(slot), images[i:i+run]); err != nil {
				return fmt.Errorf("face: writing frames at %d: %w", slot, err)
			}
		}
		i += run
	}
	return nil
}

// readFrames reads the len(want) consecutive queue positions starting at
// start, splitting the run at the wrap point, and leaves in out a private
// image from the writer path's free list for every position want marks.
// The device reads — and is charged for — the whole run either way; the
// frames nobody wants are simply not copied out of it.
func (m *MVFIFO) readFrames(start uint64, want []bool, out []page.Buf) error {
	capacity := uint64(m.cfg.Frames)
	n := len(want)
	i := 0
	for i < n {
		slot := (start + uint64(i)) % capacity
		run := int(capacity - slot)
		if run > n-i {
			run = n - i
		}
		base := i
		if run == 1 {
			buf := m.images.Get()
			if err := m.cfg.Dev.ReadAt(m.layout.frameBlock(slot), buf); err != nil {
				return fmt.Errorf("face: reading frame %d: %w", slot, err)
			}
			if want[base] {
				out[base] = buf
			} else {
				m.images.Put(buf)
			}
		} else {
			err := m.cfg.Dev.ReadRun(m.layout.frameBlock(slot), run, func(j int, p []byte) error {
				if want[base+j] {
					buf := m.images.Get()
					copy(buf, p)
					out[base+j] = buf
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("face: reading frames at %d: %w", slot, err)
			}
		}
		i += run
	}
	return nil
}

// Checkpoint flushes the current metadata segment and queue pointers to
// flash.  Data pages in the cache are not written anywhere: they are
// already part of the persistent database (Section 4.1).
func (m *MVFIFO) Checkpoint() error {
	m.wrMu.Lock()
	defer m.wrMu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	m.mu.Lock()
	seq, front := m.seq, m.front
	m.mu.Unlock()
	//lint:allow facevet/nolockio checkpoint fence: wrMu excludes writers so the metadata flush sees a stable queue; m.mu is released first
	flushes, err := m.metadir.flush(seq, front)
	if flushes > 0 {
		m.mu.Lock()
		m.stats.MetadataFlushes += int64(flushes)
		m.mu.Unlock()
	}
	return err
}

// Recover rebuilds the in-memory directory after a crash: the persistent
// metadata segments are read back and the frames written after the last
// metadata flush are rediscovered by scanning their headers and enqueue
// stamps (Section 4.2).  It runs before the cache is shared, so it holds
// the writer and metadata locks for its duration (the stripe locks are
// taken per entry).
func (m *MVFIFO) Recover() error {
	m.wrMu.Lock()
	defer m.wrMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:allow facevet/nolockio recovery runs before the cache is shared (see doc comment); holding both locks for its duration is the point
	front, persisted, entries, err := m.metadir.load()
	if err != nil {
		return err
	}
	capacity := uint64(m.cfg.Frames)
	m.front = front
	m.meta = make([]frameMeta, m.cfg.Frames)
	m.refs = make([]atomic.Bool, m.cfg.Frames)
	m.stripes = newStripes(m.cfg.Stripes, m.cfg.Frames)

	apply := func(pos uint64, id page.ID, lsn page.LSN, dirty bool) {
		slot := pos % capacity
		newest := true
		// The recovered window can be wider than the frame array when the
		// persisted front lags the pre-crash front, so two replayed
		// positions may share a physical slot.  The slot's bytes belong to
		// the later position; a directory entry still pointing at the
		// earlier one would serve them as the wrong page (or the wrong
		// version), and unlike the live path nothing removed it before the
		// slot was reused.  Drop it here — and when the overwritten
		// occupant was a newer version of this same page, remember that the
		// current copy now lives on disk (it was staged out when the old
		// position left the window), not in this slot.
		if prev := m.meta[slot]; prev.used && prev.valid {
			pst := m.stripe(prev.id)
			pst.mu.Lock()
			if cur, ok := pst.dir[prev.id]; ok && cur.pos != pos && cur.pos%capacity == slot {
				if prev.id == id && prev.lsn > lsn {
					newest = false
				}
				delete(pst.dir, prev.id)
			}
			pst.mu.Unlock()
		}
		st := m.stripe(id)
		st.mu.Lock()
		if old, ok := st.dir[id]; ok && old.pos >= m.front {
			oldSlot := old.pos % capacity
			if m.meta[oldSlot].id == id && m.meta[oldSlot].valid {
				if m.meta[oldSlot].lsn > lsn {
					newest = false
				} else {
					m.meta[oldSlot].valid = false
				}
			}
		}
		m.meta[slot] = frameMeta{id: id, lsn: lsn, valid: newest, dirty: dirty, used: true}
		if newest {
			st.dir[id] = dirEntry{pos: pos, lsn: lsn, dirty: dirty}
		}
		st.mu.Unlock()
	}

	// Replay persisted entries for positions still inside the queue window.
	for pos := front; pos < persisted; pos++ {
		e, ok := entries[pos]
		if !ok {
			continue
		}
		apply(pos, e.id, e.lsn, e.dirty)
	}

	// Rescan frames written after the last metadata flush.  The enqueue
	// stamp distinguishes current-generation frames from stale ones.  The
	// frames are read in runs of one, two, four and so on up to
	// maxRescanRun, each one device command, so a long rescan pays the
	// command overhead once per run rather than once per frame, and a
	// short one reads little past its end.
	limit := persisted + 2*uint64(m.cfg.SegmentEntries)
	if limit > persisted+capacity {
		limit = persisted + capacity
	}
	m.seq = persisted
	pos, stale := persisted, false
	for run := uint64(1); pos < limit && !stale; run = min(2*run, maxRescanRun) {
		slot := pos % capacity
		n := min(run, limit-pos, capacity-slot)
		m.stats.FlashPageReads += int64(n)
		//lint:allow facevet/nolockio recovery scan: runs before the cache is shared, single-threaded by construction
		err := m.cfg.Dev.ReadRun(m.layout.frameBlock(slot), int(n), func(_ int, p []byte) error {
			buf := page.Buf(p)
			if stale = buf.CacheStamp() != uint32(pos) || buf.ID() == page.InvalidID; stale {
				return errStaleFrame
			}
			// Conservatively treat rediscovered frames as dirty: at worst
			// this causes one redundant disk write when the frame is
			// staged out.
			apply(pos, buf.ID(), buf.LSN(), true)
			m.metadir.restoreEntry(pos, metaEntry{id: buf.ID(), lsn: buf.LSN(), dirty: true})
			pos++
			m.seq = pos
			return nil
		})
		if err != nil && !errors.Is(err, errStaleFrame) {
			return fmt.Errorf("face: recovery scan at frame %d: %w", slot, err)
		}
	}
	if m.seq < m.front {
		m.seq = m.front
	}

	// Clamp the recovered window to the frame array.  The persisted front
	// can lag the pre-crash front (it is recorded at metadata flushes), so
	// seq-front may exceed the number of physical slots.  Positions below
	// seq-capacity are below the pre-crash front, which only ever advanced
	// past pages already written to disk — their disk copies are current —
	// and their slots alias newer positions, so keeping them would let the
	// live replacement path recycle a slot out from under a still-published
	// directory entry.  Drop them and start the queue from a window that
	// fits.
	if m.seq > m.front+capacity {
		newFront := m.seq - capacity
		for _, st := range m.stripes {
			st.mu.Lock()
			for id, e := range st.dir {
				if e.pos >= newFront {
					continue
				}
				slot := e.pos % capacity
				if m.meta[slot].id == id && m.meta[slot].valid {
					m.meta[slot] = frameMeta{}
				}
				delete(st.dir, id)
			}
			st.mu.Unlock()
		}
		m.front = newFront
	}
	return nil
}

// maxRescanRun is the longest run of frames the restart rescan reads with
// one device command.
const maxRescanRun = 16

// errStaleFrame stops a run of the restart rescan at the first frame the
// current generation of the queue did not write.
var errStaleFrame = errors.New("face: stale frame")

// FlushAll writes every valid dirty frame to disk and marks it clean.  It
// is used for clean shutdown.
func (m *MVFIFO) FlushAll() error {
	m.wrMu.Lock()
	defer m.wrMu.Unlock()
	capacity := uint64(m.cfg.Frames)

	type target struct {
		pos uint64
		id  page.ID
	}
	m.mu.Lock()
	var targets []target
	for pos := m.front; pos < m.seq; pos++ {
		fm := &m.meta[pos%capacity]
		if fm.valid && fm.dirty {
			targets = append(targets, target{pos: pos, id: fm.id})
		}
	}
	m.mu.Unlock()

	for _, t := range targets {
		slot := t.pos % capacity
		buf := page.NewBuf()
		//lint:allow facevet/nolockio FlushAll is a shutdown/benchmark fence: wrMu excludes writers for its duration on purpose; m.mu is only taken for stats
		if err := m.cfg.Dev.ReadAt(m.layout.frameBlock(slot), buf); err != nil {
			return fmt.Errorf("face: flush read frame %d: %w", slot, err)
		}
		m.mu.Lock()
		m.stats.FlashPageReads++
		m.mu.Unlock()
		if err := m.destageOut(t.id, buf); err != nil {
			return fmt.Errorf("face: flush write page %d: %w", t.id, err)
		}
		m.mu.Lock()
		m.meta[slot].dirty = false
		st := m.stripe(t.id)
		st.mu.Lock()
		if cur, ok := st.dir[t.id]; ok && cur.pos == t.pos {
			cur.dirty = false
			st.dir[t.id] = cur
		}
		st.mu.Unlock()
		m.mu.Unlock()
	}
	// The flush exists to leave the disk self-contained; make it durable.
	if m.cfg.DiskSync != nil {
		if err := m.cfg.DiskSync(); err != nil {
			return fmt.Errorf("face: syncing disk after flush: %w", err)
		}
	}
	return nil
}

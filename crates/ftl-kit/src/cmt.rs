//! The Cached Mapping Table: a segmented-LRU cache of LPN → PPN entries.
//!
//! Both DLOOP and DFTL keep the working set of the page-mapping table in a
//! small SRAM cache and leave the full table on flash (§III.D: "When the
//! CMT is full, a victim entry will be selected using the segmented least
//! recently used (LRU) algorithm"). Segmented LRU splits the cache into a
//! *probationary* and a *protected* segment: new entries enter probation;
//! a hit promotes an entry to protected; protected overflow demotes its LRU
//! back to probation; eviction takes the probation LRU first. This guards
//! the hot mappings against scan pollution — exactly why the paper picks
//! it for enterprise workloads.
//!
//! Dirty entries (mappings changed since they were loaded) must be written
//! back to their translation page on eviction; the CMT keeps a dirty count
//! per translation page so the FTL can batch-flush all dirty siblings of
//! the victim with one translation-page rewrite (the classic DFTL "batch
//! update" optimisation). A flush walks its page's LPNs in ascending order.
//!
//! The index is dense: one `u32` slot per LPN of the space the table was
//! built for, holding the entry's node index + 1 (0 = not cached). A probe
//! is one array load, with no hashing on the host-write or GC-move path,
//! and forks, merges and flushes walk LPNs in ascending order. The slots
//! cost 4 bytes per LPN whatever the capacity;
//! [`DemandMap`](crate::demand::DemandMap) stores its authoritative map as
//! `u32` PPNs to pay for them.

use dloop_nand::{Lpn, Ppn};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

#[derive(Debug, Clone)]
struct Node {
    lpn: Lpn,
    ppn: Ppn,
    dirty: bool,
    seg: Segment,
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone, Copy)]
struct ListEnds {
    head: u32, // MRU
    tail: u32, // LRU
    len: usize,
}

const EMPTY: ListEnds = ListEnds {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// An entry evicted from the CMT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The logical page whose mapping fell out.
    pub lpn: Lpn,
    /// Its physical page at eviction time.
    pub ppn: Ppn,
    /// Whether the mapping changed while cached (needs write-back).
    pub dirty: bool,
}

/// Segmented-LRU cached mapping table.
///
/// ```
/// use dloop_ftl_kit::cmt::CachedMappingTable;
///
/// let mut cmt = CachedMappingTable::new(2, 256, 1024);
/// cmt.insert(1, 100, false);
/// cmt.insert(2, 200, false);
/// assert_eq!(cmt.lookup(1), Some(100)); // promoted to protected
/// // Inserting a third entry evicts the probation LRU (lpn 2).
/// let evicted = cmt.insert(3, 300, false).unwrap();
/// assert_eq!(evicted.lpn, 2);
/// ```
#[derive(Debug, Clone)]
pub struct CachedMappingTable {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Per LPN: node index + 1 of its cached entry, 0 when not cached.
    slots: Vec<u32>,
    probation: ListEnds,
    protected: ListEnds,
    capacity: usize,
    protected_cap: usize,
    mappings_per_tpage: u64,
    /// Per translation page: how many of its cached entries are dirty.
    dirty_counts: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl CachedMappingTable {
    /// A CMT over LPNs `0..lpn_space` holding at most `capacity` entries,
    /// of which at most `capacity/2` sit in the protected segment;
    /// `mappings_per_tpage` groups entries by translation page for batched
    /// write-back. The index takes 4 bytes per LPN of `lpn_space`.
    pub fn new(capacity: usize, mappings_per_tpage: u64, lpn_space: u64) -> Self {
        assert!(capacity >= 2, "CMT needs at least two entries");
        assert!(mappings_per_tpage > 0);
        CachedMappingTable {
            nodes: Vec::with_capacity(capacity.min(lpn_space as usize)),
            free: Vec::new(),
            slots: vec![0; lpn_space as usize],
            probation: EMPTY,
            protected: EMPTY,
            capacity,
            protected_cap: capacity / 2,
            mappings_per_tpage,
            dirty_counts: vec![0; lpn_space.div_ceil(mappings_per_tpage) as usize],
            hits: 0,
            misses: 0,
        }
    }

    /// The translation page number covering `lpn`.
    pub fn tvpn_of(&self, lpn: Lpn) -> u64 {
        lpn / self.mappings_per_tpage
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.probation.len + self.protected.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// (hits, misses) counters — `lookup` classifies, `peek` does not.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Zero the hit/miss counters — a sharded worker's fork counts pure
    /// deltas, added back at the merge via
    /// [`CachedMappingTable::add_hit_stats`].
    pub fn reset_hit_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Add `(hits, misses)` deltas accumulated by a worker fork.
    pub fn add_hit_stats(&mut self, (hits, misses): (u64, u64)) {
        self.hits += hits;
        self.misses += misses;
    }

    /// The node index of `lpn`'s cached entry.
    fn slot(&self, lpn: Lpn) -> Option<u32> {
        self.slots[lpn as usize].checked_sub(1)
    }

    /// Every cached entry as `(lpn, ppn, dirty)`, in ascending LPN order —
    /// the sharded merge walks a worker's entries and adopts the ones the
    /// worker owned.
    pub fn iter_entries(&self) -> impl Iterator<Item = (Lpn, Ppn, bool)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(lpn, &s)| {
                let n = &self.nodes[s as usize - 1];
                (lpn as Lpn, n.ppn, n.dirty)
            })
    }

    /// A partial fork for one sharded worker: a fresh table with the same
    /// capacity, LPN space and translation-page grouping, seeded in
    /// ascending LPN order with exactly the entries whose LPN the worker
    /// `owns`. In the fully-resident regime the recency order is never
    /// consulted, so presence alone makes the fork behave identically to
    /// the full table for owned LPNs. The cost is one pass over the slot
    /// array plus one insert per owned entry, and the worker's node list
    /// holds only its own entries. Hit/miss counters start at zero (the
    /// fork counts pure deltas).
    pub fn shard_fork_owned(&self, owns: &dyn Fn(Lpn) -> bool) -> CachedMappingTable {
        let mut fork = CachedMappingTable::new(
            self.capacity,
            self.mappings_per_tpage,
            self.slots.len() as u64,
        );
        for (lpn, ppn, dirty) in self.iter_entries() {
            if owns(lpn) {
                let evicted = fork.insert(lpn, ppn, dirty);
                debug_assert!(evicted.is_none());
            }
        }
        fork
    }

    /// Adopt a worker fork's entry at the sharded merge: update the cached
    /// mapping and dirty flag *without* recency promotion or hit/miss
    /// accounting, inserting if absent. Recency order is deliberately not
    /// reconstructed — the merge only runs in the fully-resident regime
    /// (capacity ≥ LPN space), where eviction order is never consulted.
    ///
    /// Panics if an insert would require an eviction.
    pub fn adopt(&mut self, lpn: Lpn, ppn: Ppn, dirty: bool) {
        let Some(idx) = self.slot(lpn) else {
            assert!(
                self.len() < self.capacity,
                "adopt into a full CMT would evict"
            );
            let evicted = self.insert(lpn, ppn, dirty);
            debug_assert!(evicted.is_none());
            return;
        };
        let node = &mut self.nodes[idx as usize];
        node.ppn = ppn;
        let was_dirty = std::mem::replace(&mut node.dirty, dirty);
        if dirty && !was_dirty {
            self.mark_dirty(lpn);
        } else if !dirty && was_dirty {
            self.unmark_dirty(lpn);
        }
    }

    fn list(&mut self, seg: Segment) -> &mut ListEnds {
        match seg {
            Segment::Probation => &mut self.probation,
            Segment::Protected => &mut self.protected,
        }
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next, seg) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next, n.seg)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        let l = self.list(seg);
        if l.head == idx {
            l.head = next;
        }
        if l.tail == idx {
            l.tail = prev;
        }
        l.len -= 1;
    }

    fn attach_front(&mut self, idx: u32, seg: Segment) {
        let old_head = self.list(seg).head;
        {
            let n = &mut self.nodes[idx as usize];
            n.seg = seg;
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        }
        let l = self.list(seg);
        l.head = idx;
        if l.tail == NIL {
            l.tail = idx;
        }
        l.len += 1;
    }

    fn mark_dirty(&mut self, lpn: Lpn) {
        let tvpn = self.tvpn_of(lpn);
        self.dirty_counts[tvpn as usize] += 1;
    }

    fn unmark_dirty(&mut self, lpn: Lpn) {
        let tvpn = self.tvpn_of(lpn);
        self.dirty_counts[tvpn as usize] -= 1;
    }

    /// A referencing lookup: on hit, promote to the protected segment and
    /// return the mapping. Counts toward hit/miss statistics.
    pub fn lookup(&mut self, lpn: Lpn) -> Option<Ppn> {
        let Some(idx) = self.slot(lpn) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.promote(idx);
        Some(self.nodes[idx as usize].ppn)
    }

    fn promote(&mut self, idx: u32) {
        self.detach(idx);
        self.attach_front(idx, Segment::Protected);
        // Protected overflow demotes its LRU into probation.
        if self.protected.len > self.protected_cap {
            let demote = self.protected.tail;
            debug_assert_ne!(demote, NIL);
            self.detach(demote);
            self.attach_front(demote, Segment::Probation);
        }
    }

    /// Non-referencing read of a cached mapping (no promotion, no stats).
    pub fn peek(&self, lpn: Lpn) -> Option<(Ppn, bool)> {
        self.slot(lpn).map(|i| {
            let n = &self.nodes[i as usize];
            (n.ppn, n.dirty)
        })
    }

    /// Update the mapping of an LPN that is already cached (a write hit):
    /// the entry gets the new PPN, becomes dirty, and is promoted.
    ///
    /// Panics if the LPN is not cached — callers must `lookup` first.
    pub fn update(&mut self, lpn: Lpn, new_ppn: Ppn) {
        let idx = self.slot(lpn).expect("update of uncached mapping");
        self.set_dirty(idx, new_ppn);
        self.promote(idx);
    }

    /// Update the mapping of a cached LPN *without* promoting it — used by
    /// GC when it relocates a page: the mapping changes but the host did
    /// not reference it, so its recency must not improve.
    ///
    /// No-op if the LPN is not cached (GC moves uncached pages too).
    pub fn update_in_place(&mut self, lpn: Lpn, new_ppn: Ppn) -> bool {
        let Some(idx) = self.slot(lpn) else {
            return false;
        };
        self.set_dirty(idx, new_ppn);
        true
    }

    fn set_dirty(&mut self, idx: u32, new_ppn: Ppn) {
        let node = &mut self.nodes[idx as usize];
        node.ppn = new_ppn;
        if !node.dirty {
            node.dirty = true;
            let lpn = node.lpn;
            self.mark_dirty(lpn);
        }
    }

    /// Insert a mapping that is not currently cached. Returns the entry
    /// evicted to make room, if any.
    ///
    /// Panics if the LPN is already cached.
    pub fn insert(&mut self, lpn: Lpn, ppn: Ppn, dirty: bool) -> Option<Evicted> {
        assert!(
            self.slot(lpn).is_none(),
            "insert of already-cached lpn {lpn}"
        );
        let evicted = if self.len() >= self.capacity {
            Some(self.evict_one())
        } else {
            None
        };
        let node = Node {
            lpn,
            ppn,
            dirty,
            seg: Segment::Probation,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.slots[lpn as usize] = idx + 1;
        self.attach_front(idx, Segment::Probation);
        if dirty {
            self.mark_dirty(lpn);
        }
        evicted
    }

    fn evict_one(&mut self) -> Evicted {
        // Probation LRU first; fall back to protected LRU if probation is
        // empty (possible after heavy promotion).
        let victim = if self.probation.tail != NIL {
            self.probation.tail
        } else {
            self.protected.tail
        };
        debug_assert_ne!(victim, NIL, "evict from empty cache");
        self.remove_node(victim)
    }

    fn remove_node(&mut self, idx: u32) -> Evicted {
        self.detach(idx);
        let node = &self.nodes[idx as usize];
        let ev = Evicted {
            lpn: node.lpn,
            ppn: node.ppn,
            dirty: node.dirty,
        };
        self.slots[ev.lpn as usize] = 0;
        if ev.dirty {
            self.unmark_dirty(ev.lpn);
        }
        self.free.push(idx);
        ev
    }

    /// Remove a specific cached entry (e.g. when GC relocates its
    /// translation page and the FTL re-materialises mappings).
    pub fn remove(&mut self, lpn: Lpn) -> Option<Evicted> {
        let idx = self.slot(lpn)?;
        Some(self.remove_node(idx))
    }

    /// Drain and clean every *dirty* cached mapping belonging to
    /// translation page `tvpn`, returning (lpn, ppn) pairs in ascending LPN
    /// order. The entries stay cached but are no longer dirty — the caller
    /// is about to write them all into the translation page in one batch.
    pub fn flush_translation_page(&mut self, tvpn: u64) -> Vec<(Lpn, Ppn)> {
        let Some(count) = self.dirty_counts.get_mut(tvpn as usize) else {
            return Vec::new();
        };
        let want = std::mem::take(count) as usize;
        let mut out = Vec::with_capacity(want);
        let lo = tvpn * self.mappings_per_tpage;
        let hi = (lo + self.mappings_per_tpage).min(self.slots.len() as u64);
        for lpn in lo..hi {
            if out.len() == want {
                break;
            }
            if let Some(idx) = self.slot(lpn) {
                let node = &mut self.nodes[idx as usize];
                if node.dirty {
                    node.dirty = false;
                    out.push((lpn, node.ppn));
                }
            }
        }
        debug_assert_eq!(out.len(), want, "dirty count desync");
        out
    }

    /// Translation pages holding at least one dirty entry, ascending —
    /// used when shutting down a run to account for outstanding state (and
    /// in audits).
    pub fn dirty_tvpns(&self) -> Vec<u64> {
        (self.dirty_counts.iter().enumerate())
            .filter(|(_, &c)| c > 0)
            .map(|(t, _)| t as u64)
            .collect()
    }

    /// Audit internal consistency: slots ↔ lists ↔ dirty-count agreement.
    pub fn check(&self) -> Result<(), String> {
        if self.len() > self.capacity {
            return Err("over capacity".into());
        }
        let mut dirty_counts = vec![0u32; self.dirty_counts.len()];
        for (ends, seg) in [
            (self.probation, Segment::Probation),
            (self.protected, Segment::Protected),
        ] {
            let mut idx = ends.head;
            let mut prev = NIL;
            let mut seen = 0usize;
            while idx != NIL {
                let n = &self.nodes[idx as usize];
                if n.seg != seg {
                    return Err("node in wrong segment".into());
                }
                if n.prev != prev {
                    return Err("broken prev link".into());
                }
                if self.slot(n.lpn) != Some(idx) {
                    return Err(format!("slot desync for lpn {}", n.lpn));
                }
                if n.dirty {
                    dirty_counts[self.tvpn_of(n.lpn) as usize] += 1;
                }
                prev = idx;
                idx = n.next;
                seen += 1;
            }
            if ends.tail != prev {
                return Err("tail mismatch".into());
            }
            if seen != ends.len {
                return Err("segment length disagrees with its list".into());
            }
        }
        if self.slots.iter().filter(|&&s| s != 0).count() != self.len() {
            return Err("orphan slots".into());
        }
        if dirty_counts != self.dirty_counts {
            return Err("dirty counts desync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmt(cap: usize) -> CachedMappingTable {
        CachedMappingTable::new(cap, 256, 512)
    }

    #[test]
    fn insert_lookup_round_trip() {
        let mut c = cmt(4);
        assert_eq!(c.insert(10, 100, false), None);
        assert_eq!(c.lookup(10), Some(100));
        assert_eq!(c.lookup(11), None);
        assert_eq!(c.hit_stats(), (1, 1));
        c.check().unwrap();
    }

    #[test]
    fn eviction_takes_probation_lru() {
        let mut c = cmt(3);
        c.insert(1, 11, false);
        c.insert(2, 22, false);
        c.insert(3, 33, false);
        // Hit 1 so it is protected; inserting 4 must evict 2 (probation LRU).
        c.lookup(1);
        let ev = c.insert(4, 44, false).unwrap();
        assert_eq!(ev.lpn, 2);
        assert_eq!(c.len(), 3);
        c.check().unwrap();
    }

    #[test]
    fn protected_overflow_demotes() {
        let mut c = cmt(4); // protected cap = 2
        for lpn in 0..4 {
            c.insert(lpn, lpn * 10, false);
        }
        // Promote three entries; the first promoted gets demoted back.
        c.lookup(0);
        c.lookup(1);
        c.lookup(2);
        c.check().unwrap();
        // Eviction order should now prefer probation (3, then demoted 0).
        let ev = c.insert(9, 90, false).unwrap();
        assert_eq!(ev.lpn, 3);
        let ev = c.insert(10, 100, false).unwrap();
        assert_eq!(ev.lpn, 0);
        c.check().unwrap();
    }

    #[test]
    fn update_sets_dirty_and_new_ppn() {
        let mut c = cmt(4);
        c.insert(5, 50, false);
        c.update(5, 51);
        assert_eq!(c.peek(5), Some((51, true)));
        assert_eq!(c.dirty_tvpns(), vec![0]);
        c.check().unwrap();
    }

    #[test]
    fn dirty_eviction_reports_dirty() {
        let mut c = cmt(2);
        c.insert(1, 10, true);
        c.insert(2, 20, false);
        let ev = c.insert(3, 30, false).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.lpn, 1);
        // Its dirty-index entry is gone.
        assert!(c.dirty_tvpns().is_empty());
        c.check().unwrap();
    }

    #[test]
    fn flush_translation_page_batches_siblings() {
        let mut c = cmt(8);
        // LPNs 0,1,2 share tvpn 0 (256 mappings per page); 300 is tvpn 1.
        c.insert(0, 100, true);
        c.insert(1, 101, true);
        c.insert(2, 102, false);
        c.insert(300, 103, true);
        let flushed = c.flush_translation_page(0);
        assert_eq!(flushed, vec![(0, 100), (1, 101)]);
        // Entries stay cached, now clean.
        assert_eq!(c.peek(0), Some((100, false)));
        assert_eq!(c.dirty_tvpns(), vec![1]);
        c.check().unwrap();
    }

    #[test]
    fn remove_specific_entry() {
        let mut c = cmt(4);
        c.insert(1, 10, true);
        let ev = c.remove(1).unwrap();
        assert_eq!((ev.lpn, ev.ppn, ev.dirty), (1, 10, true));
        assert!(c.is_empty());
        assert!(c.remove(1).is_none());
        c.check().unwrap();
    }

    #[test]
    fn eviction_falls_back_to_protected() {
        let mut c = cmt(2); // protected cap = 1
        c.insert(1, 10, false);
        c.insert(2, 20, false);
        c.lookup(1);
        c.lookup(2); // 2 promoted, 1 demoted -> probation: [1], protected: [2]
        let ev = c.insert(3, 30, false).unwrap();
        assert_eq!(ev.lpn, 1);
        // Now probation holds 3, protected holds 2. Promote 3 as well:
        c.lookup(3); // protected cap 1 -> demotes 2.
        let ev = c.insert(4, 40, false).unwrap();
        assert_eq!(ev.lpn, 2);
        c.check().unwrap();
    }

    #[test]
    fn update_in_place_does_not_promote() {
        let mut c = cmt(3);
        c.insert(1, 10, false);
        c.insert(2, 20, false);
        c.insert(3, 30, false);
        // GC relocates lpn 1's page; recency must not change, so the next
        // eviction still takes lpn 1 (probation LRU).
        assert!(c.update_in_place(1, 11));
        assert_eq!(c.peek(1), Some((11, true)));
        let ev = c.insert(4, 40, false).unwrap();
        assert_eq!(ev.lpn, 1);
        assert!(ev.dirty);
        // Uncached lpn is a no-op.
        assert!(!c.update_in_place(99, 1));
        c.check().unwrap();
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut c = cmt(16);
        for i in 0..1000u64 {
            let lpn = (i * 7) % 64;
            if c.peek(lpn).is_some() {
                if i % 3 == 0 {
                    c.update(lpn, i);
                } else {
                    c.lookup(lpn);
                }
            } else {
                c.insert(lpn, i, i % 2 == 0);
            }
            if i % 37 == 0 {
                c.flush_translation_page(0);
            }
            c.check().unwrap();
        }
        assert!(c.len() <= 16);
    }
}

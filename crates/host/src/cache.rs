//! Write-back host page cache with deterministic LRU eviction.
//!
//! The cache is a pure function of the request stream: lookups use a
//! `HashMap` from page to slot (never iterated), while recency order is
//! an intrusive doubly linked list threaded through a slab of slots,
//! oldest at the head. Touching a page unlinks its slot and re-links it
//! at the tail, eviction pops the head, and freed slots are recycled
//! through a free list, so every operation is O(1) and eviction order,
//! write-back order and every statistic are identical across reruns —
//! the determinism rule the host-stack chapter of DESIGN.md pins down.
//!
//! State machine per page: *absent* → (`read` miss) → *clean* → (`write`)
//! → *dirty* → (dirty-ratio flush / drain) → *clean* → (LRU eviction) →
//! *absent*. Evicting a dirty page emits a write-back; evicting a clean
//! page is free.

use dloop_ftl_kit::request::TenantId;
use std::collections::HashMap;

/// A page the cache decided to write back, tagged with the tenant that
/// last dirtied it (so device-side QoS accounting still sees the right
/// stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Logical page to write.
    pub lpn: u64,
    /// Stream that last wrote the page.
    pub tenant: TenantId,
}

/// Counters the cache accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read page lookups served from the cache.
    pub read_hits: u64,
    /// Read page lookups that went to the device.
    pub read_misses: u64,
    /// Write pages absorbed by the write-back cache.
    pub writes_absorbed: u64,
    /// Pages written back because the dirty ratio tripped.
    pub flushed: u64,
    /// Dirty pages written back because LRU eviction pushed them out.
    pub evicted_dirty: u64,
    /// Clean pages silently evicted.
    pub evicted_clean: u64,
    /// Pages written back by the end-of-trace drain.
    pub drained: u64,
}

/// End-of-list marker for slot links.
const NIL: u32 = u32::MAX;

/// One slab slot: a resident page and its recency-list links.
#[derive(Debug, Clone, Copy)]
struct Node {
    lpn: u64,
    prev: u32,
    next: u32,
    dirty: bool,
    tenant: TenantId,
}

/// The write-back page cache. `capacity == 0` disables it entirely (every
/// operation misses and nothing is retained).
#[derive(Debug)]
pub struct PageCache {
    capacity: u64,
    dirty_ratio: f64,
    index: HashMap<u64, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Least recently used slot.
    head: u32,
    /// Most recently used slot.
    tail: u32,
    dirty: u64,
    /// Run counters, readable at any time.
    pub stats: CacheStats,
}

impl PageCache {
    /// A cache of `capacity` pages flushing once the dirty fraction
    /// exceeds `dirty_ratio`.
    pub fn new(capacity: u64, dirty_ratio: f64) -> Self {
        PageCache {
            capacity,
            dirty_ratio: dirty_ratio.clamp(0.0, 1.0),
            index: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            dirty: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether the cache retains anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Resident pages.
    pub fn len(&self) -> u64 {
        self.index.len() as u64
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Resident dirty pages.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Link `slot` in as the most recently used page.
    fn push_back(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }

    fn insert(&mut self, lpn: u64, dirty: bool, tenant: TenantId, out: &mut Vec<Writeback>) {
        if let Some(&slot) = self.index.get(&lpn) {
            // Re-insert of a resident page: it takes the new state and
            // becomes the most recently used.
            let node = &mut self.nodes[slot as usize];
            if node.dirty {
                self.dirty -= 1;
            }
            node.dirty = dirty;
            node.tenant = tenant;
            self.unlink(slot);
            self.push_back(slot);
        } else {
            let node = Node {
                lpn,
                prev: NIL,
                next: NIL,
                dirty,
                tenant,
            };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.nodes[slot as usize] = node;
                    slot
                }
                None => {
                    self.nodes.push(node);
                    u32::try_from(self.nodes.len() - 1).expect("cache slots fit in u32")
                }
            };
            self.index.insert(lpn, slot);
            self.push_back(slot);
        }
        if dirty {
            self.dirty += 1;
        }
        // LRU eviction down to capacity; dirty victims are written back.
        while self.len() > self.capacity {
            let victim = self.head;
            self.unlink(victim);
            self.free.push(victim);
            let e = self.nodes[victim as usize];
            self.index.remove(&e.lpn);
            if e.dirty {
                self.dirty -= 1;
                self.stats.evicted_dirty += 1;
                out.push(Writeback {
                    lpn: e.lpn,
                    tenant: e.tenant,
                });
            } else {
                self.stats.evicted_clean += 1;
            }
        }
    }

    /// Absorb one written page (write-back: the device sees nothing until
    /// a flush, eviction or drain pushes the page out). Any write-backs
    /// the insertion forces are appended to `out`.
    pub fn write(&mut self, lpn: u64, tenant: TenantId, out: &mut Vec<Writeback>) {
        if !self.enabled() {
            return;
        }
        self.stats.writes_absorbed += 1;
        self.insert(lpn, true, tenant, out);
    }

    /// Look up one read page: `true` is a hit (recency refreshed),
    /// `false` a miss — the page is installed clean (read-allocate) and
    /// the caller forwards the read to the device. Evictions forced by
    /// the fill are appended to `out`.
    pub fn read(&mut self, lpn: u64, tenant: TenantId, out: &mut Vec<Writeback>) -> bool {
        if !self.enabled() {
            return false;
        }
        if let Some(&slot) = self.index.get(&lpn) {
            self.stats.read_hits += 1;
            self.unlink(slot);
            self.push_back(slot);
            true
        } else {
            self.stats.read_misses += 1;
            self.insert(lpn, false, tenant, out);
            false
        }
    }

    /// Write back *all* dirty pages (oldest first) if the dirty fraction
    /// exceeded the configured ratio. The pages stay resident, now clean.
    pub fn maybe_flush(&mut self, out: &mut Vec<Writeback>) {
        if !self.enabled() || (self.dirty as f64) <= self.dirty_ratio * self.capacity as f64 {
            return;
        }
        self.flush_dirty(out, false);
    }

    /// Write back every dirty page unconditionally (end-of-trace drain).
    pub fn drain(&mut self, out: &mut Vec<Writeback>) {
        self.flush_dirty(out, true);
    }

    fn flush_dirty(&mut self, out: &mut Vec<Writeback>, draining: bool) {
        // List order = touch order: the write-back stream is
        // deterministic and oldest-dirty-first.
        let mut slot = self.head;
        while slot != NIL {
            let node = &mut self.nodes[slot as usize];
            slot = node.next;
            if !node.dirty {
                continue;
            }
            node.dirty = false;
            self.dirty -= 1;
            if draining {
                self.stats.drained += 1;
            } else {
                self.stats.flushed += 1;
            }
            out.push(Writeback {
                lpn: node.lpn,
                tenant: node.tenant,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dloop_simkit::check::{self, Checker, Generator};
    use dloop_simkit::check_assert_eq;
    use std::collections::VecDeque;

    #[test]
    fn disabled_cache_misses_everything() {
        let mut c = PageCache::new(0, 0.5);
        let mut out = Vec::new();
        assert!(!c.read(7, 1, &mut out));
        c.write(7, 1, &mut out);
        assert!(!c.read(7, 1, &mut out));
        assert!(out.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats.writes_absorbed, 0);
    }

    #[test]
    fn read_allocates_then_hits() {
        let mut c = PageCache::new(4, 1.0);
        let mut out = Vec::new();
        assert!(!c.read(3, 1, &mut out));
        assert!(c.read(3, 1, &mut out));
        assert_eq!((c.stats.read_hits, c.stats.read_misses), (1, 1));
        assert!(out.is_empty());
    }

    #[test]
    fn lru_evicts_oldest_and_writes_back_dirty_victims() {
        let mut c = PageCache::new(2, 1.0);
        let mut out = Vec::new();
        c.write(1, 9, &mut out); // dirty
        assert!(!c.read(2, 1, &mut out)); // clean fill
        assert!(!c.read(3, 1, &mut out)); // evicts page 1 (oldest, dirty)
        assert_eq!(out, vec![Writeback { lpn: 1, tenant: 9 }]);
        assert!(!c.read(4, 1, &mut out)); // evicts page 2 (clean): no writeback
        assert_eq!(out.len(), 1);
        assert_eq!(c.stats.evicted_dirty, 1);
        assert_eq!(c.stats.evicted_clean, 1);
    }

    #[test]
    fn touch_order_protects_recently_used_pages() {
        let mut c = PageCache::new(2, 1.0);
        let mut out = Vec::new();
        c.write(1, 1, &mut out);
        c.write(2, 1, &mut out);
        assert!(c.read(1, 1, &mut out)); // refresh page 1
        c.write(3, 1, &mut out); // must evict page 2, not 1
        assert_eq!(out, vec![Writeback { lpn: 2, tenant: 1 }]);
        assert!(c.read(1, 1, &mut out));
    }

    #[test]
    fn dirty_ratio_flushes_all_dirty_oldest_first() {
        let mut c = PageCache::new(10, 0.25);
        let mut out = Vec::new();
        c.write(5, 2, &mut out);
        c.write(4, 2, &mut out);
        c.maybe_flush(&mut out);
        assert!(out.is_empty(), "2/10 dirty is below 0.25");
        c.write(3, 2, &mut out);
        c.maybe_flush(&mut out); // 3/10 > 0.25: flush everything
        assert_eq!(
            out.iter().map(|w| w.lpn).collect::<Vec<_>>(),
            vec![5, 4, 3],
            "oldest dirty first"
        );
        assert_eq!(c.dirty_pages(), 0);
        assert_eq!(c.len(), 3, "flushed pages stay resident");
        assert_eq!(c.stats.flushed, 3);
        // Re-flushing is a no-op: the pages are clean now.
        out.clear();
        c.maybe_flush(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rewrite_of_resident_page_keeps_one_dirty_copy() {
        let mut c = PageCache::new(4, 1.0);
        let mut out = Vec::new();
        c.write(1, 1, &mut out);
        c.write(1, 2, &mut out); // rewrite, new tenant owns the page
        assert_eq!(c.dirty_pages(), 1);
        c.drain(&mut out);
        assert_eq!(out, vec![Writeback { lpn: 1, tenant: 2 }]);
        assert_eq!(c.stats.drained, 1);
    }

    #[test]
    fn determinism_across_reruns() {
        let run = || {
            let mut c = PageCache::new(8, 0.4);
            let mut out = Vec::new();
            for i in 0..200u64 {
                let lpn = (i * 37) % 23;
                if i % 3 == 0 {
                    c.read(lpn, (i % 4) as TenantId, &mut out);
                } else {
                    c.write(lpn, (i % 4) as TenantId, &mut out);
                }
                c.maybe_flush(&mut out);
            }
            c.drain(&mut out);
            (out, c.stats)
        };
        assert_eq!(run(), run());
    }

    /// The obviously correct reference: a recency list of
    /// `(lpn, dirty, tenant)`, oldest first, searched linearly.
    struct NaiveCache {
        capacity: u64,
        dirty_ratio: f64,
        recency: VecDeque<(u64, bool, TenantId)>,
        stats: CacheStats,
    }

    impl NaiveCache {
        fn dirty_pages(&self) -> u64 {
            self.recency.iter().filter(|e| e.1).count() as u64
        }

        fn insert(&mut self, lpn: u64, dirty: bool, tenant: TenantId, out: &mut Vec<Writeback>) {
            if let Some(pos) = self.recency.iter().position(|e| e.0 == lpn) {
                self.recency.remove(pos);
            }
            self.recency.push_back((lpn, dirty, tenant));
            while self.recency.len() as u64 > self.capacity {
                let (lpn, dirty, tenant) = self.recency.pop_front().expect("over capacity");
                if dirty {
                    self.stats.evicted_dirty += 1;
                    out.push(Writeback { lpn, tenant });
                } else {
                    self.stats.evicted_clean += 1;
                }
            }
        }

        fn read(&mut self, lpn: u64, tenant: TenantId, out: &mut Vec<Writeback>) -> bool {
            if self.capacity == 0 {
                return false;
            }
            match self.recency.iter().position(|e| e.0 == lpn) {
                Some(pos) => {
                    self.stats.read_hits += 1;
                    let e = self.recency.remove(pos).expect("found");
                    self.recency.push_back(e);
                    true
                }
                None => {
                    self.stats.read_misses += 1;
                    self.insert(lpn, false, tenant, out);
                    false
                }
            }
        }

        fn write(&mut self, lpn: u64, tenant: TenantId, out: &mut Vec<Writeback>) {
            if self.capacity > 0 {
                self.stats.writes_absorbed += 1;
                self.insert(lpn, true, tenant, out);
            }
        }

        fn flush(&mut self, out: &mut Vec<Writeback>, draining: bool) {
            for e in self.recency.iter_mut().filter(|e| e.1) {
                e.1 = false;
                if draining {
                    self.stats.drained += 1;
                } else {
                    self.stats.flushed += 1;
                }
                out.push(Writeback {
                    lpn: e.0,
                    tenant: e.2,
                });
            }
        }

        fn maybe_flush(&mut self, out: &mut Vec<Writeback>) {
            let limit = self.dirty_ratio * self.capacity as f64;
            if self.capacity > 0 && self.dirty_pages() as f64 > limit {
                self.flush(out, false);
            }
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum CacheOp {
        Read(u64, TenantId),
        Write(u64, TenantId),
        MaybeFlush,
        Drain,
    }

    /// Random op streams over 12 pages and 3 tenants against caches of
    /// 0–6 pages: every hit/miss, write-back (page and tenant, in order),
    /// counter, residency and dirty count must match the naive model
    /// after every operation.
    #[test]
    fn matches_a_naive_recency_list_model() {
        let op = check::weighted(vec![
            (
                5,
                (check::u64s(0..12), check::u8s(1..4))
                    .map(|(lpn, t)| CacheOp::Read(lpn, t as TenantId))
                    .boxed(),
            ),
            (
                5,
                (check::u64s(0..12), check::u8s(1..4))
                    .map(|(lpn, t)| CacheOp::Write(lpn, t as TenantId))
                    .boxed(),
            ),
            (2, check::elements(vec![CacheOp::MaybeFlush]).boxed()),
            (1, check::elements(vec![CacheOp::Drain]).boxed()),
        ]);
        let gen = (
            check::u64s(0..7),
            check::elements(vec![0.0, 0.25, 0.5, 1.0]),
            check::vec_of(op, 0..120),
        );
        Checker::new()
            .cases(200)
            .run(&gen, |(capacity, ratio, ops)| {
                let mut fast = PageCache::new(*capacity, *ratio);
                let mut naive = NaiveCache {
                    capacity: *capacity,
                    dirty_ratio: *ratio,
                    recency: VecDeque::new(),
                    stats: CacheStats::default(),
                };
                let (mut out_fast, mut out_naive) = (Vec::new(), Vec::new());
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        CacheOp::Read(lpn, t) => check_assert_eq!(
                            fast.read(lpn, t, &mut out_fast),
                            naive.read(lpn, t, &mut out_naive),
                            "hit/miss at op {}",
                            i
                        ),
                        CacheOp::Write(lpn, t) => {
                            fast.write(lpn, t, &mut out_fast);
                            naive.write(lpn, t, &mut out_naive);
                        }
                        CacheOp::MaybeFlush => {
                            fast.maybe_flush(&mut out_fast);
                            naive.maybe_flush(&mut out_naive);
                        }
                        CacheOp::Drain => {
                            fast.drain(&mut out_fast);
                            naive.flush(&mut out_naive, true);
                        }
                    }
                    check_assert_eq!(out_fast, out_naive, "write-backs after op {}", i);
                    check_assert_eq!(fast.stats, naive.stats, "stats after op {}", i);
                    check_assert_eq!(fast.len(), naive.recency.len() as u64, "len after op {}", i);
                    check_assert_eq!(
                        fast.dirty_pages(),
                        naive.dirty_pages(),
                        "dirty pages after op {}",
                        i
                    );
                }
                Ok(())
            });
    }
}

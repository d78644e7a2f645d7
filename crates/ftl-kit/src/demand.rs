//! The demand-paged mapping engine shared by DLOOP and DFTL.
//!
//! Both schemes keep the authoritative page-mapping table in flash as
//! translation pages, cache hot entries in the [`CachedMappingTable`], and
//! find translation pages through the [`Gtd`]. The protocol (paper Fig. 6,
//! inherited from DFTL):
//!
//! 1. On a CMT miss, evict a segmented-LRU victim; if it is dirty, its
//!    translation page is read, updated, and re-written to a new flash
//!    location (batching every dirty sibling of the same translation page).
//! 2. The missing entry's translation page is then read and the entry
//!    loaded into the CMT.
//! 3. Host writes update the cached entry (dirty); GC moves update it in
//!    place without promotion and batch-rewrite affected translation pages.
//!
//! The *placement* of a freshly written translation page is the one thing
//! the schemes disagree on (DLOOP spreads by `tvpn % planes`, DFTL clusters
//! from plane 0), so it is supplied as a closure: `place(ctx, tvpn) -> Ppn`
//! must program a page somewhere, record it in the page directory, push the
//! corresponding [`FlashStep::Write`](crate::ftl::FlashStep::Write), and
//! return the new PPN.

use crate::cmt::CachedMappingTable;
use crate::ftl::FtlContext;
use crate::gtd::Gtd;
use dloop_nand::{Geometry, Lpn, Ppn};

/// Sentinel for "no physical page mapped" in cached entries.
pub const UNMAPPED: Ppn = Ppn::MAX;

/// The same sentinel in the authoritative `u32` map.
const NO_PPN: u32 = u32::MAX;

/// Counters the engine maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandCounters {
    /// Translation pages read from flash.
    pub translation_reads: u64,
    /// Translation pages written to flash.
    pub translation_writes: u64,
    /// CMT evictions that required a write-back.
    pub dirty_evictions: u64,
    /// GC mapping updates deferred into the pending buffer.
    pub deferred_updates: u64,
}

/// Authoritative mapping table + demand-caching traffic generator.
///
/// GC-driven mapping changes are not persisted one translation page per
/// victim: updates for uncached mappings accumulate in a small SRAM
/// *pending buffer* (per translation page) and are flushed in batch when
/// the buffer exceeds its budget or when the page is rewritten anyway
/// (dirty CMT eviction). This is the standard lazy-update optimisation of
/// demand-mapping FTLs — without it, schemes whose GC victims span many
/// translation pages pay one read-modify-write per page per victim and
/// the translation stream dwarfs the host stream.
#[derive(Debug, Clone)]
pub struct DemandMap {
    /// Authoritative LPN → PPN map, as `u32` (see [`DemandMap::new`]).
    map: Vec<u32>,
    cmt: CachedMappingTable,
    gtd: Gtd,
    pending: std::collections::BTreeMap<u64, u32>,
    pending_total: u64,
    pub(crate) pending_budget: u64,
    /// Engine counters.
    pub counters: DemandCounters,
}

impl DemandMap {
    /// Build for a geometry with a CMT of `cmt_capacity` entries.
    ///
    /// The authoritative map stores each PPN as a `u32`, with `u32::MAX`
    /// meaning unmapped. Half the width of a `Ppn` pays for the CMT's
    /// dense 4-byte-per-LPN index. The largest geometry the experiments
    /// build (64 GB of 2 KB pages) has about 35 M physical pages.
    ///
    /// # Panics
    ///
    /// If the geometry has 2³² or more physical pages, before anything
    /// is allocated.
    pub fn new(geometry: &Geometry, cmt_capacity: usize) -> Self {
        let pages = geometry.total_physical_pages();
        assert!(
            pages <= u32::MAX as u64,
            "DemandMap stores PPNs as u32: {pages} physical pages (2^32 or more) do not fit"
        );
        let lpns = geometry.user_pages();
        DemandMap {
            map: vec![NO_PPN; lpns as usize],
            cmt: CachedMappingTable::new(
                cmt_capacity,
                geometry.mappings_per_translation_page(),
                lpns,
            ),
            gtd: Gtd::new(geometry),
            pending: std::collections::BTreeMap::new(),
            pending_total: 0,
            pending_budget: cmt_capacity as u64,
            counters: DemandCounters::default(),
        }
    }

    /// The authoritative mapping for `lpn` (no traffic, no cache effects).
    pub fn mapped(&self, lpn: Lpn) -> Option<Ppn> {
        let p = self.map[lpn as usize];
        (p != NO_PPN).then_some(p as Ppn)
    }

    /// The translation page covering `lpn`.
    pub fn tvpn_of(&self, lpn: Lpn) -> u64 {
        self.gtd.tvpn_of(lpn)
    }

    /// CMT hit/miss statistics.
    pub fn cmt_stats(&self) -> (u64, u64) {
        self.cmt.hit_stats()
    }

    /// Shared view of the GTD (audits).
    pub fn gtd(&self) -> &Gtd {
        &self.gtd
    }

    /// Shared view of the CMT (audits).
    pub fn cmt(&self) -> &CachedMappingTable {
        &self.cmt
    }

    /// Whether the engine is in the *plane-pure* regime the sharded
    /// translation fast path requires: a fully resident CMT (inserts never
    /// evict, so no dirty write-backs), no materialised translation pages
    /// (misses generate no flash reads — pinned by the
    /// `miss_on_cold_unmapped_lpn_generates_no_reads` test), and no
    /// deferred GC updates awaiting a flush. In this regime every
    /// operation's flash effects stay on the data page's own plane.
    pub fn plane_pure(&self) -> bool {
        self.cmt.capacity() >= self.map.len()
            && self.gtd.materialised() == 0
            && self.pending_total == 0
    }

    /// A worker's fork for plane-sharded translation, authoritative only
    /// for the LPNs `owns` selects (the worker's home planes): the `u32`
    /// mapping array is copied (a flat memcpy), and the cached-mapping
    /// table is rebuilt in one ascending pass over its slot array with
    /// owned entries only — the worker never looks up a foreign LPN, and
    /// carrying foreign entries would multiply the worker's node list and
    /// random-access working set by the shard count. All counters start at
    /// zero, so the worker accumulates pure deltas for
    /// [`DemandMap::shard_absorb`].
    pub fn shard_fork(&self, owns: &dyn Fn(Lpn) -> bool) -> DemandMap {
        DemandMap {
            map: self.map.clone(),
            cmt: self.cmt.shard_fork_owned(owns),
            gtd: self.gtd.clone(),
            pending: self.pending.clone(),
            pending_total: self.pending_total,
            pending_budget: self.pending_budget,
            counters: DemandCounters::default(),
        }
    }

    /// Merge a [`DemandMap::shard_fork`] worker back: adopt authoritative
    /// mappings and cached entries for the LPNs `owns` selects (the
    /// worker's home planes), in ascending LPN order, and add its hit/miss
    /// deltas. Only valid in the plane-pure regime, where the worker
    /// generated no translation traffic and cached-entry recency is never
    /// consulted.
    pub fn shard_absorb(&mut self, worker: &DemandMap, owns: &dyn Fn(Lpn) -> bool) {
        debug_assert_eq!(
            worker.counters,
            DemandCounters::default(),
            "plane-pure worker generated translation traffic"
        );
        debug_assert_eq!(worker.pending_total, 0);
        self.cmt.add_hit_stats(worker.cmt.hit_stats());
        for (lpn, ppn, dirty) in worker.cmt.iter_entries() {
            if owns(lpn) {
                self.map[lpn as usize] = worker.map[lpn as usize];
                self.cmt.adopt(lpn, ppn, dirty);
            }
        }
    }

    /// Make sure `lpn`'s mapping entry is cached, generating the miss
    /// traffic of paper Fig. 6 lines 4-14. Returns the mapping.
    pub fn ensure_cached(
        &mut self,
        lpn: Lpn,
        ctx: &mut FtlContext<'_>,
        place: &mut dyn FnMut(&mut FtlContext<'_>, u64) -> Ppn,
    ) -> Option<Ppn> {
        if self.cmt.lookup(lpn).is_some() {
            return self.mapped(lpn);
        }
        // Miss: insert (evicting if full), write back a dirty victim.
        let authoritative = self.mapped(lpn).unwrap_or(UNMAPPED);
        let evicted = self.cmt.insert(lpn, authoritative, false);
        if let Some(ev) = evicted {
            if ev.dirty {
                self.counters.dirty_evictions += 1;
                let victim_tvpn = self.gtd.tvpn_of(ev.lpn);
                self.rewrite_translation_page(victim_tvpn, ctx, place);
            }
        }
        // Load the requested entry's translation page (if materialised).
        let tvpn = self.gtd.tvpn_of(lpn);
        if let Some(tp) = self.gtd.lookup(tvpn) {
            ctx.read_page(tp);
            self.counters.translation_reads += 1;
        }
        self.mapped(lpn)
    }

    /// Every PPN fits the `u32` map: [`DemandMap::new`] refused geometries
    /// with 2³² or more physical pages.
    fn set_mapping(&mut self, lpn: Lpn, ppn: Ppn) {
        debug_assert!(ppn < NO_PPN as Ppn, "ppn {ppn} outside the u32 map");
        self.map[lpn as usize] = ppn as u32;
    }

    /// Commit a host write: `lpn` now lives at `new_ppn`. The entry must be
    /// cached (callers run [`Self::ensure_cached`] first).
    pub fn commit_write(&mut self, lpn: Lpn, new_ppn: Ppn) {
        self.set_mapping(lpn, new_ppn);
        self.cmt.update(lpn, new_ppn);
    }

    /// Record a GC data-page move: authoritative map changes; the cached
    /// entry (if any) is updated without promotion (persisted later by its
    /// dirty eviction), otherwise the update lands in the pending buffer
    /// for a batched flush.
    pub fn gc_move(&mut self, lpn: Lpn, new_ppn: Ppn) {
        self.set_mapping(lpn, new_ppn);
        if !self.cmt.update_in_place(lpn, new_ppn) {
            let tvpn = self.gtd.tvpn_of(lpn);
            *self.pending.entry(tvpn).or_insert(0) += 1;
            self.pending_total += 1;
            self.counters.deferred_updates += 1;
        }
    }

    /// Deferred (not yet persisted) mapping updates for `tvpn`.
    pub fn pending_count(&self, tvpn: u64) -> u32 {
        self.pending.get(&tvpn).copied().unwrap_or(0)
    }

    /// Total deferred updates across all translation pages.
    pub fn pending_total(&self) -> u64 {
        self.pending_total
    }

    /// Flush pending updates while the buffer exceeds its SRAM budget,
    /// largest translation page first (best amortisation per write). At
    /// most `max_flushes` pages are written per call: the budget is a soft
    /// SRAM bound, and an uncapped flush inside a GC pass could consume
    /// more free pages than the pass reclaims.
    pub fn flush_pending_over_budget(
        &mut self,
        ctx: &mut FtlContext<'_>,
        can_place: &mut dyn FnMut(&FtlContext<'_>, u64) -> bool,
        place: &mut dyn FnMut(&mut FtlContext<'_>, u64) -> Ppn,
    ) {
        let mut flushes = 0;
        while self.pending_total > self.pending_budget && flushes < 8 {
            flushes += 1;
            // Deterministic: highest count wins, lowest tvpn breaks ties —
            // among pages whose destination can absorb a write right now
            // (`can_place` keeps the flush away from planes that are
            // themselves waiting for GC).
            let Some((&tvpn, _)) = self
                .pending
                .iter()
                .filter(|(&tvpn, _)| can_place(ctx, tvpn))
                .max_by_key(|(&tvpn, &c)| (c, std::cmp::Reverse(tvpn)))
            else {
                break;
            };
            self.rewrite_translation_page(tvpn, ctx, place);
        }
    }

    /// Record a GC move of translation page `tvpn` itself to `new_ppn`.
    pub fn gc_move_translation(&mut self, tvpn: u64, new_ppn: Ppn) {
        let old = self.gtd.update(tvpn, new_ppn);
        debug_assert!(
            old.is_some(),
            "GC moved a translation page the GTD never placed"
        );
    }

    /// Read-modify-write translation page `tvpn`: read the current copy
    /// (when one exists), write an up-to-date copy via `place`, invalidate
    /// the old copy, update the GTD, and clean every dirty CMT sibling
    /// (the batch update). Generates the corresponding chain steps.
    pub fn rewrite_translation_page(
        &mut self,
        tvpn: u64,
        ctx: &mut FtlContext<'_>,
        place: &mut dyn FnMut(&mut FtlContext<'_>, u64) -> Ppn,
    ) {
        let old = self.gtd.lookup(tvpn);
        if let Some(old_ppn) = old {
            ctx.read_page(old_ppn);
            self.counters.translation_reads += 1;
        }
        let new_ppn = place(ctx, tvpn);
        self.counters.translation_writes += 1;
        if let Some(old_ppn) = old {
            ctx.flash
                .invalidate(old_ppn)
                .expect("stale GTD entry: old translation page not valid");
            ctx.dir.clear(old_ppn);
        }
        self.gtd.update(tvpn, new_ppn);
        // All dirty siblings and pending GC updates are persisted by this
        // write.
        let _ = self.cmt.flush_translation_page(tvpn);
        if let Some(c) = self.pending.remove(&tvpn) {
            self.pending_total -= c as u64;
        }
    }

    /// Whether translation page `tvpn` currently lives at `ppn` (GC asks
    /// before moving a translation page).
    pub fn translation_at(&self, tvpn: u64, ppn: Ppn) -> bool {
        self.gtd.lookup(tvpn) == Some(ppn)
    }

    /// Iterate every mapped (lpn, ppn) pair — O(LPN space), audits only.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Lpn, Ppn)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != NO_PPN)
            .map(|(l, &p)| (l as Lpn, p as Ppn))
    }

    /// Number of mapped LPNs — O(LPN space), audits only.
    pub fn mapped_count(&self) -> u64 {
        self.map.iter().filter(|&&p| p != NO_PPN).count() as u64
    }

    /// Audit: cached entries agree with the authoritative map; GTD entries
    /// are internally consistent.
    pub fn check(&self) -> Result<(), String> {
        self.cmt.check()?;
        // Every cached entry must equal the authoritative mapping (we keep
        // them in lock-step; dirtiness only describes the on-flash copy).
        // Sampling the dirty set suffices for the cheap audit; integration
        // tests do full scans.
        for tvpn in self.cmt.dirty_tvpns() {
            if tvpn as usize >= self.gtd.len() {
                return Err(format!("dirty tvpn {tvpn} out of GTD range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::PageDirectory;
    use crate::ftl::{FlashStep, OpChain};
    use dloop_nand::{BlockAddr, FlashState};
    use dloop_simkit::check::{self, Checker, Generator};
    use dloop_simkit::{check_assert, check_assert_eq};

    /// Harness: a tiny flash plus a trivial plane-0 sequential placer.
    struct Rig {
        flash: FlashState,
        dir: PageDirectory,
        chain: OpChain,
        gc_chain: OpChain,
        scan_chain: OpChain,
        dm: DemandMap,
        active: Option<BlockAddr>,
    }

    impl Rig {
        fn new(cmt_cap: usize) -> Self {
            Self::with_geometry(
                Geometry::build_with_hierarchy(1, 2, 5.0, 2, 1, 1, 1, 2),
                cmt_cap,
            )
        }

        fn with_geometry(g: Geometry, cmt_cap: usize) -> Self {
            Rig {
                flash: FlashState::new(g.clone()),
                dir: PageDirectory::new(&g),
                chain: OpChain::new(),
                gc_chain: OpChain::new(),
                scan_chain: OpChain::new(),
                dm: DemandMap::new(&g, cmt_cap),
                active: None,
            }
        }

        /// Run `f` with a context and the standard test placer.
        fn run<R>(
            &mut self,
            f: impl FnOnce(
                &mut DemandMap,
                &mut FtlContext<'_>,
                &mut dyn FnMut(&mut FtlContext<'_>, u64) -> Ppn,
            ) -> R,
        ) -> R {
            let mut ctx = FtlContext {
                flash: &mut self.flash,
                dir: &mut self.dir,
                host_chain: &mut self.chain,
                gc_chain: &mut self.gc_chain,
                scan_chain: &mut self.scan_chain,
                phase: crate::ftl::Phase::Host,
            };
            let active = &mut self.active;
            let mut place = move |ctx: &mut FtlContext<'_>, tvpn: u64| -> Ppn {
                let need_new = match *active {
                    None => true,
                    Some(b) => ctx.flash.plane(b.plane).block(b.index).is_full(),
                };
                if need_new {
                    let idx = ctx.flash.allocate_free_block(0).unwrap();
                    *active = Some(BlockAddr {
                        plane: 0,
                        index: idx,
                    });
                }
                let addr = ctx.flash.program_next(active.unwrap()).unwrap();
                let ppn = ctx.flash.geometry().ppn_of(addr);
                ctx.dir.set_translation(ppn, tvpn);
                ctx.push(FlashStep::Write { plane: 0 });
                ppn
            };
            f(&mut self.dm, &mut ctx, &mut place)
        }
    }

    #[test]
    fn miss_on_cold_unmapped_lpn_generates_no_reads() {
        let mut rig = Rig::new(4);
        let got = rig.run(|dm, ctx, place| dm.ensure_cached(7, ctx, place));
        assert_eq!(got, None);
        assert!(rig.chain.is_empty());
        assert_eq!(rig.dm.counters.translation_reads, 0);
    }

    #[test]
    fn write_then_reload_generates_read() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(7, ctx, place);
            dm.commit_write(7, 42);
            // Force the dirty entry out by rewriting its page directly.
            dm.rewrite_translation_page(dm.tvpn_of(7), ctx, place);
        });
        assert_eq!(rig.dm.counters.translation_writes, 1);
        assert_eq!(rig.dm.mapped(7), Some(42));
        // Drop it from the CMT and re-ensure: the materialised page is read.
        rig.dm.cmt.remove(7);
        rig.chain.clear();
        rig.run(|dm, ctx, place| dm.ensure_cached(7, ctx, place));
        assert_eq!(rig.dm.counters.translation_reads, 1);
        assert_eq!(rig.chain.len(), 1);
    }

    #[test]
    fn dirty_eviction_writes_back_batched() {
        let mut rig = Rig::new(2);
        rig.run(|dm, ctx, place| {
            // Fill the CMT with two dirty entries on the same tvpn (0).
            dm.ensure_cached(1, ctx, place);
            dm.commit_write(1, 100);
            dm.ensure_cached(2, ctx, place);
            dm.commit_write(2, 200);
            // Third insert evicts lpn 1 (probation LRU), which is dirty ->
            // one translation-page write that also cleans lpn 2.
            dm.ensure_cached(3, ctx, place);
        });
        assert_eq!(rig.dm.counters.dirty_evictions, 1);
        assert_eq!(rig.dm.counters.translation_writes, 1);
        assert!(
            rig.dm.cmt.dirty_tvpns().is_empty(),
            "siblings must be clean"
        );
    }

    #[test]
    fn rewrite_invalidates_old_copy() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(1, ctx, place);
            dm.commit_write(1, 5);
            dm.rewrite_translation_page(0, ctx, place);
            dm.rewrite_translation_page(0, ctx, place);
        });
        // Two writes, second one read the first.
        assert_eq!(rig.dm.counters.translation_writes, 2);
        assert_eq!(rig.dm.counters.translation_reads, 1);
        // Exactly one valid translation page remains.
        assert_eq!(rig.flash.total_valid_pages(), 1);
        rig.flash.check().unwrap();
    }

    #[test]
    fn gc_move_of_uncached_mapping_defers() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(1, ctx, place);
            dm.commit_write(1, 5);
            // Persist and drop from the CMT so the mapping is uncached.
            dm.rewrite_translation_page(0, ctx, place);
        });
        rig.dm.cmt.remove(1);
        rig.dm.gc_move(1, 6);
        assert_eq!(rig.dm.mapped(1), Some(6));
        assert_eq!(rig.dm.pending_count(0), 1);
        assert_eq!(rig.dm.pending_total(), 1);
        assert_eq!(rig.dm.counters.deferred_updates, 1);
        // A rewrite clears the pending debt.
        rig.run(|dm, ctx, place| dm.rewrite_translation_page(0, ctx, place));
        assert_eq!(rig.dm.pending_total(), 0);
    }

    #[test]
    fn flush_respects_budget_and_filter() {
        let mut rig = Rig::new(4);
        // Shrink the budget for the test.
        rig.dm.pending_budget = 2;
        rig.run(|dm, ctx, place| {
            // Materialise three translation pages.
            for lpn in [0u64, 256, 512] {
                dm.ensure_cached(lpn, ctx, place);
                dm.commit_write(lpn, lpn + 1);
                dm.rewrite_translation_page(dm.tvpn_of(lpn), ctx, place);
            }
        });
        for lpn in [0u64, 256, 512] {
            rig.dm.cmt.remove(lpn);
        }
        // Defer updates: tvpn 1 gets two, tvpns 0 and 2 one each.
        rig.dm.gc_move(0, 100);
        rig.dm.gc_move(256, 101);
        rig.dm.gc_move(257, 102);
        rig.dm.gc_move(512, 103);
        assert_eq!(rig.dm.pending_total(), 4);

        // Flush with a filter that forbids tvpn 1: the flush must drain
        // other pages and stop (never violating the filter).
        rig.run(|dm, ctx, place| {
            let mut deny_one = |_: &FtlContext<'_>, tvpn: u64| tvpn != 1;
            dm.flush_pending_over_budget(ctx, &mut deny_one, place);
        });
        assert_eq!(rig.dm.pending_count(1), 2, "filtered page left alone");
        assert!(rig.dm.pending_total() <= 2 || rig.dm.pending_count(1) == 2);

        // Unfiltered flush drains to within budget (largest first).
        rig.run(|dm, ctx, place| {
            let mut allow = |_: &FtlContext<'_>, _: u64| true;
            dm.flush_pending_over_budget(ctx, &mut allow, place);
        });
        assert!(rig.dm.pending_total() <= 2);
    }

    #[test]
    fn gc_move_updates_map_without_promotion() {
        let mut rig = Rig::new(4);
        rig.run(|dm, ctx, place| {
            dm.ensure_cached(9, ctx, place);
            dm.commit_write(9, 50);
        });
        rig.dm.gc_move(9, 51);
        assert_eq!(rig.dm.mapped(9), Some(51));
        assert_eq!(rig.dm.cmt.peek(9), Some((51, true)));
        rig.dm.check().unwrap();
    }

    #[test]
    #[should_panic(expected = "DemandMap stores PPNs as u32")]
    fn geometry_with_2_pow_32_physical_pages_is_refused() {
        // 8 TiB of 2 KiB pages: 2^32 user pages before any spare block.
        let g = Geometry::build(8192, 2, 3.0);
        assert!(g.total_physical_pages() >= 1 << 32);
        DemandMap::new(&g, 4096);
    }

    /// 4 planes × 8 data blocks × 64 pages: 2048 LPNs on 8 translation
    /// pages, 2560 physical pages.
    fn small_geometry() -> Geometry {
        Geometry {
            channels: 1,
            packages_per_channel: 1,
            chips_per_package: 1,
            dies_per_chip: 1,
            planes_per_die: 4,
            blocks_per_plane: 10,
            data_blocks_per_plane: 8,
            pages_per_block: 64,
            page_size: 2048,
        }
    }

    const SMALL_LPNS: u64 = 2048;

    #[derive(Debug, Clone)]
    enum MapOp {
        /// A host write: `ensure_cached` then `commit_write`.
        Write(Lpn, Ppn),
        /// A host read: `ensure_cached` alone (first touch caches unmapped).
        Read(Lpn),
        /// A GC move of a mapped LPN.
        Move(Lpn, Ppn),
        /// Clean a translation page's cached entries (parent set-up only).
        Clean(u64),
    }

    impl MapOp {
        fn lpn(&self) -> Lpn {
            match *self {
                MapOp::Write(l, _) | MapOp::Read(l) | MapOp::Move(l, _) => l,
                MapOp::Clean(_) => unreachable!("workers never clean"),
            }
        }
    }

    fn apply(rig: &mut Rig, op: &MapOp) {
        match *op {
            MapOp::Write(lpn, ppn) => rig.run(|dm, ctx, place| {
                dm.ensure_cached(lpn, ctx, place);
                dm.commit_write(lpn, ppn);
            }),
            MapOp::Read(lpn) => {
                rig.run(|dm, ctx, place| dm.ensure_cached(lpn, ctx, place));
            }
            MapOp::Move(lpn, ppn) => {
                if rig.dm.mapped(lpn).is_some() {
                    rig.dm.gc_move(lpn, ppn);
                }
            }
            MapOp::Clean(tvpn) => {
                rig.dm.cmt.flush_translation_page(tvpn);
            }
        }
    }

    fn small_lpn() -> check::BoxedGenerator<Lpn> {
        check::weighted(vec![
            (6, check::u64s(0..SMALL_LPNS).boxed()),
            (1, check::elements(vec![0, SMALL_LPNS - 1]).boxed()),
        ])
        .boxed()
    }

    fn worker_op() -> check::BoxedGenerator<MapOp> {
        let ppn = || check::u64s(0..small_geometry().total_physical_pages());
        check::weighted(vec![
            (
                3,
                (small_lpn(), ppn())
                    .map(|(l, p)| MapOp::Write(l, p))
                    .boxed(),
            ),
            (2, small_lpn().map(MapOp::Read).boxed()),
            (
                3,
                (small_lpn(), ppn()).map(|(l, p)| MapOp::Move(l, p)).boxed(),
            ),
        ])
        .boxed()
    }

    fn setup_op() -> check::BoxedGenerator<MapOp> {
        check::weighted(vec![
            (8, worker_op()),
            (1, check::u64s(0..8).map(MapOp::Clean).boxed()),
        ])
        .boxed()
    }

    #[test]
    fn shard_fork_and_absorb_match_a_direct_replay() {
        let gen = (
            check::u64s(0..u64::MAX),
            check::vec_of(setup_op(), 0..300),
            check::vec_of(worker_op(), 0..300),
        );
        Checker::new().cases(64).run(&gen, |(mask, setup, work)| {
            let owns = |lpn: Lpn| (mask >> (lpn % 64)) & 1 == 1;
            let rig = || Rig::with_geometry(small_geometry(), SMALL_LPNS as usize);
            let mut parent = rig();
            for op in setup {
                apply(&mut parent, op);
            }
            check_assert!(parent.dm.plane_pure());
            let mut reference = rig();
            reference.dm = parent.dm.clone();
            let mut worker = rig();
            worker.dm = parent.dm.shard_fork(&owns);
            for op in work.iter().filter(|op| owns(op.lpn())) {
                apply(&mut worker, op);
                apply(&mut reference, op);
            }
            parent.dm.shard_absorb(&worker.dm, &owns);

            let (got, want) = (&parent.dm, &reference.dm);
            check_assert_eq!(
                got.cmt.iter_entries().collect::<Vec<_>>(),
                want.cmt.iter_entries().collect::<Vec<_>>()
            );
            check_assert_eq!(got.cmt.dirty_tvpns(), want.cmt.dirty_tvpns());
            check_assert_eq!(got.cmt_stats(), want.cmt_stats());
            check_assert_eq!(
                got.iter_mapped().collect::<Vec<_>>(),
                want.iter_mapped().collect::<Vec<_>>()
            );
            check_assert_eq!(got.counters, want.counters);
            got.check()
        });
    }
}

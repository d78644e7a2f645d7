//! Micro-benchmarks of the mapping structures: the segmented-LRU Cached
//! Mapping Table and the page directory.
//!
//! The CMT runs in two regimes: a 4096-entry cache over a 1M-LPN space
//! (the paper's small SRAM table), and a fully resident table holding a
//! whole 1 GB device's map (524 288 LPNs, random access), the regime of
//! the aged-overwrite shard workload, where every host write and GC move
//! probes it.

use dloop_ftl_kit::cmt::CachedMappingTable;
use dloop_ftl_kit::dir::PageDirectory;
use dloop_nand::Geometry;
use dloop_simkit::bench::{black_box, Bench};
use dloop_simkit::SimRng;

/// The LPN space of the 4096-entry cases (a 2 GB device of 2 KB pages).
const SMALL_CMT_LPNS: u64 = 1 << 20;

/// The LPN space (and capacity) of the fully resident cases.
const RESIDENT_LPNS: u64 = 524_288;

fn bench_cmt(bench: &mut Bench) {
    {
        let mut cmt = CachedMappingTable::new(4096, 256, SMALL_CMT_LPNS);
        for i in 0..4096 {
            cmt.insert(i, i * 10, false);
        }
        let mut lpn = 0u64;
        bench.case("hit_lookup", || {
            let got = cmt.lookup(black_box(lpn % 4096));
            lpn += 1;
            got
        });
    }

    {
        let mut cmt = CachedMappingTable::new(4096, 256, SMALL_CMT_LPNS);
        let mut lpn = 0u64;
        bench.case("miss_insert_evict", || {
            // Always-miss workload: every insert evicts once warm.
            if cmt.peek(lpn).is_none() {
                cmt.insert(lpn, lpn, lpn.is_multiple_of(2));
            }
            lpn = (lpn + 1) % SMALL_CMT_LPNS;
        });
    }

    {
        let mut cmt = CachedMappingTable::new(4096, 256, SMALL_CMT_LPNS);
        for i in 0..4096 {
            cmt.insert(i, i, false);
        }
        let mut lpn = 0u64;
        bench.case("update_dirty", || {
            cmt.update(black_box(lpn % 4096), lpn);
            lpn += 1;
        });
    }

    {
        let mut cmt = CachedMappingTable::new(4096, 256, SMALL_CMT_LPNS);
        for i in 0..4096 {
            cmt.insert(i, i, false);
        }
        let mut round = 0u64;
        bench.case("flush_translation_page", || {
            // Dirty one tvpn's worth, then batch-flush it.
            let base = (round % 16) * 256;
            for k in 0..8 {
                cmt.update(base + k, round);
            }
            round += 1;
            cmt.flush_translation_page(base / 256)
        });
    }
}

fn bench_resident_cmt(bench: &mut Bench) {
    let mut cmt = CachedMappingTable::new(RESIDENT_LPNS as usize, 256, RESIDENT_LPNS);
    for lpn in 0..RESIDENT_LPNS {
        cmt.insert(lpn, lpn, false);
    }
    let mut rng = SimRng::new(11);
    let lpns: Vec<u64> = (0..1 << 16).map(|_| rng.below(RESIDENT_LPNS)).collect();
    let mut i = 0usize;
    bench.case("resident_random_lookup", || {
        let got = cmt.lookup(black_box(lpns[i & 0xffff]));
        i += 1;
        got
    });
    bench.case("resident_random_update_in_place", || {
        let lpn = lpns[i & 0xffff];
        i += 1;
        cmt.update_in_place(black_box(lpn), lpn)
    });
}

fn bench_dir(bench: &mut Bench) {
    let geometry = Geometry::build(1, 2, 5.0);
    let mut dir = PageDirectory::new(&geometry);
    let n = geometry.total_physical_pages();
    let mut ppn = 0u64;
    bench.case("dir_set_clear_owner", || {
        dir.set_data(ppn % n, ppn);
        let o = dir.owner(black_box(ppn % n));
        dir.clear(ppn % n);
        ppn += 1;
        o
    });
}

fn main() {
    let mut bench = Bench::new("mapping");
    bench_cmt(&mut bench);
    bench_resident_cmt(&mut bench);
    bench_dir(&mut bench);
}

//! Model-based property test: the segmented-LRU Cached Mapping Table must
//! behave like a reference cache — same hit/miss classification, same
//! contents, same dirty set — under arbitrary operation sequences, while
//! never exceeding capacity and always passing its structural audit. A
//! translation-page flush must return exactly that page's dirty entries
//! in ascending LPN order.
//!
//! Runs on `dloop_simkit::check` (the in-tree property harness); failures
//! print a `SIMKIT_CHECK_REPLAY` seed for deterministic replay.

use dloop_ftl_kit::cmt::CachedMappingTable;
use dloop_simkit::check::{self, Checker, Generator};
use dloop_simkit::{check_assert, check_assert_eq};
use std::collections::BTreeMap;

/// Not a multiple of `PER_TPAGE`, so the last translation page is partial.
const LPN_SPACE: u64 = 120;
const PER_TPAGE: u64 = 32;
const TPAGES: u64 = LPN_SPACE.div_ceil(PER_TPAGE);

#[derive(Debug, Clone)]
enum CmtOp {
    Lookup(u64),
    Insert(u64, u64, bool),
    Update(u64, u64),
    UpdateInPlace(u64, u64),
    Remove(u64),
    Flush(u64),
}

/// Any LPN of the space, with both ends drawn often.
fn lpn() -> check::BoxedGenerator<u64> {
    check::weighted(vec![
        (6, check::u64s(0..LPN_SPACE).boxed()),
        (1, check::elements(vec![0, LPN_SPACE - 1]).boxed()),
    ])
    .boxed()
}

fn op() -> check::BoxedGenerator<CmtOp> {
    check::weighted(vec![
        (3, lpn().map(CmtOp::Lookup).boxed()),
        (
            3,
            (lpn(), check::u64s(0..10_000), check::bools())
                .map(|(l, p, d)| CmtOp::Insert(l, p, d))
                .boxed(),
        ),
        (
            2,
            (lpn(), check::u64s(0..10_000))
                .map(|(l, p)| CmtOp::Update(l, p))
                .boxed(),
        ),
        (
            1,
            (lpn(), check::u64s(0..10_000))
                .map(|(l, p)| CmtOp::UpdateInPlace(l, p))
                .boxed(),
        ),
        (1, lpn().map(CmtOp::Remove).boxed()),
        (1, check::u64s(0..TPAGES).map(CmtOp::Flush).boxed()),
    ])
    .boxed()
}

/// The model's dirty entries of translation page `tvpn`, ascending.
fn dirty_of(model: &BTreeMap<u64, (u64, bool)>, tvpn: u64) -> Vec<(u64, u64)> {
    model
        .range(tvpn * PER_TPAGE..(tvpn + 1) * PER_TPAGE)
        .filter(|(_, &(_, d))| d)
        .map(|(&l, &(p, _))| (l, p))
        .collect()
}

#[test]
fn cmt_matches_reference_model() {
    let gen = (check::usizes(2..24), check::vec_of(op(), 1..250));
    Checker::new().cases(128).run(&gen, |(cap, ops)| {
        let cap = *cap;
        let mut cmt = CachedMappingTable::new(cap, PER_TPAGE, LPN_SPACE);
        // The model tracks membership and values only (eviction ORDER is
        // the CMT's own business; capacity and coherence are the law).
        let mut model: BTreeMap<u64, (u64, bool)> = BTreeMap::new();

        for o in ops {
            match *o {
                CmtOp::Lookup(l) => {
                    let got = cmt.lookup(l);
                    let want = model.get(&l).map(|&(p, _)| p);
                    check_assert_eq!(got, want, "lookup({}) diverged", l);
                }
                CmtOp::Insert(l, p, d) => {
                    if model.contains_key(&l) {
                        continue;
                    }
                    let evicted = cmt.insert(l, p, d);
                    model.insert(l, (p, d));
                    if let Some(ev) = evicted {
                        let Some((mp, md)) = model.remove(&ev.lpn) else {
                            return Err(format!("evicted lpn {} which the model lacks", ev.lpn));
                        };
                        check_assert_eq!(ev.ppn, mp);
                        check_assert_eq!(ev.dirty, md);
                    }
                }
                CmtOp::Update(l, p) => {
                    if !model.contains_key(&l) {
                        continue;
                    }
                    cmt.update(l, p);
                    model.insert(l, (p, true));
                }
                CmtOp::UpdateInPlace(l, p) => {
                    let did = cmt.update_in_place(l, p);
                    check_assert_eq!(did, model.contains_key(&l));
                    if did {
                        model.insert(l, (p, true));
                    }
                }
                CmtOp::Remove(l) => {
                    let got = cmt.remove(l);
                    let want = model.remove(&l);
                    check_assert_eq!(got.map(|e| (e.ppn, e.dirty)), want);
                }
                CmtOp::Flush(tvpn) => {
                    let flushed = cmt.flush_translation_page(tvpn);
                    let want = dirty_of(&model, tvpn);
                    check_assert_eq!(flushed, want, "flush of tvpn {} diverged", tvpn);
                    for (l, _) in want {
                        model.get_mut(&l).unwrap().1 = false;
                    }
                }
            }
            check_assert!(cmt.len() <= cap);
            check_assert_eq!(cmt.len(), model.len());
            let entries: Vec<_> = model.iter().map(|(&l, &(p, d))| (l, p, d)).collect();
            check_assert_eq!(cmt.iter_entries().collect::<Vec<_>>(), entries);
            let dirty: Vec<u64> = (0..TPAGES)
                .filter(|&t| !dirty_of(&model, t).is_empty())
                .collect();
            check_assert_eq!(cmt.dirty_tvpns(), dirty);
            cmt.check()?;
        }

        // Final coherence sweep.
        for (&l, &(p, d)) in &model {
            check_assert_eq!(cmt.peek(l), Some((p, d)));
        }
        Ok(())
    });
}

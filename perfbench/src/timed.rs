//! The traced run's FTL timing wrapper.
//!
//! [`TimedFtl`] forwards every [`Ftl`] method to the FTL it wraps and times
//! the two per-page entry points, `read` and `write`, with
//! `std::time::Instant`. The `shard_*` hooks and `as_any` forward too, so
//! the replay engine takes exactly the path it takes on the bare FTL: the
//! parallel engine forks the *inner* FTL, and translation inside its shard
//! workers therefore runs untimed here (it shows up in the engine-reported
//! `shard.replay_s` instead).

use dloop_ftl_kit::dir::PageDirectory;
use dloop_ftl_kit::ftl::{Ftl, FtlContext, FtlCounters};
use dloop_nand::{FlashState, Lpn, PlaneId, Ppn};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Self time and call count accumulated by one [`TimedFtl`]. Shared with
/// the benchmark through an `Arc` because the device owns the wrapper as a
/// `Box<dyn Ftl>` and offers no way back to the concrete type.
#[derive(Debug, Default)]
pub struct FtlClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl FtlClock {
    /// `(nanoseconds inside read/write, number of read/write calls)`.
    pub fn snapshot(&self) -> (u64, u64) {
        // Relaxed: plain statistics, published to no other data.
        (
            self.ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }

    fn add(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// An [`Ftl`] that times its inner FTL's `read` and `write` calls.
pub struct TimedFtl {
    inner: Box<dyn Ftl>,
    clock: Arc<FtlClock>,
}

impl TimedFtl {
    /// Wrap `inner`; the returned clock accumulates its call times.
    pub fn wrap(inner: Box<dyn Ftl>) -> (Box<dyn Ftl>, Arc<FtlClock>) {
        let clock = Arc::new(FtlClock::default());
        let ftl = TimedFtl {
            inner,
            clock: Arc::clone(&clock),
        };
        (Box::new(ftl), clock)
    }
}

impl Ftl for TimedFtl {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn read(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let start = Instant::now();
        self.inner.read(lpn, ctx);
        self.clock.add(start);
    }

    fn write(&mut self, lpn: Lpn, ctx: &mut FtlContext<'_>) {
        let start = Instant::now();
        self.inner.write(lpn, ctx);
        self.clock.add(start);
    }

    fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn> {
        self.inner.mapped_ppn(lpn)
    }

    fn counters(&self) -> FtlCounters {
        self.inner.counters()
    }

    fn audit(&self, flash: &FlashState, dir: &PageDirectory) -> Result<(), String> {
        self.inner.audit(flash, dir)
    }

    fn shard_home_plane(&self, lpn: Lpn) -> PlaneId {
        self.inner.shard_home_plane(lpn)
    }

    fn shard_translation_ready(&self, flash: &FlashState) -> bool {
        self.inner.shard_translation_ready(flash)
    }

    fn shard_fork(&self, planes: Range<PlaneId>) -> Option<Box<dyn Ftl + Send>> {
        self.inner.shard_fork(planes)
    }

    fn shard_op_pure(&self, flash: &FlashState, lpn: Lpn) -> bool {
        self.inner.shard_op_pure(flash, lpn)
    }

    fn shard_absorb(&mut self, worker: &dyn Ftl, planes: Range<PlaneId>) {
        self.inner.shard_absorb(worker, planes)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

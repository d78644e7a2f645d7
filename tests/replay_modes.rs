//! Replay-mode agreement, tracing-purity, and QoS-policy properties.
//!
//! The device offers five replay modes — open arrivals, the FlashSim
//! priority list (gated), a bounded host queue (closed), NCQ-style
//! bounded reordering and the QoS-policy window — all selected through
//! the builder-style `RunConfig` consumed by `SsdDevice::run_with`. They
//! model different
//! host-side scheduling, but all of them translate the same requests in
//! the same order, so they must agree on everything *stateful*: pages
//! served, flash page states, per-block erase counts, and the
//! cross-layer audit. With an unbounded queue the closed mode
//! degenerates to open arrivals exactly, report and all — zero-page
//! requests included, which is the regression gate for the closed
//! driver's freed-slot drain.
//!
//! Every mode additionally carries the sharded-engine identity (claim
//! C15): `RunConfig::shards(n)` must leave the report fingerprint and
//! flash digest bit-identical to the sequential engine, for any shard
//! count, tracing on or off — whether the plane-local fast path serves
//! the run, refuses it up front, or aborts mid-run.
//!
//! The gated scheduler additionally carries the wake-event contract:
//! every resource-busy interval ends with a scheduled wake, so a replay
//! whose tail is GC-heavy (background GC keeps planes busy *past* the
//! host `done` time) must drain without stalling on the next arrival —
//! and without tripping the end-of-trace assert when no arrival comes.
//! The soak test below replays exactly that shape; `scripts/verify.sh`
//! runs it by name as the background-GC soak.
//!
//! The flight recorder must be pure observation: every [`RunReport`]
//! field is bit-identical with tracing on or off, fault plans included.
//! And the spans it captures must reconcile with the report — one span
//! per hardware operation, and for single-page open-mode replays the
//! request-visible span residence equals the summed response time.
//!
//! The QoS policy layer carries its own invariants, pinned at the end of
//! this suite: a policy that never discriminates (single tenant, no
//! deadlines) is *bit-identical* to plain NCQ; fair-share token buckets
//! obey an exact integer conservation law; EDF never inverts two
//! same-plane deadlines; and every policy is deterministic across reruns.
//!
//! Failures print a `SIMKIT_CHECK_REPLAY` seed for deterministic replay.

use dloop_repro::baselines::DftlFtl;
use dloop_repro::dloop_ftl::DloopFtl;
use dloop_repro::faults::FaultConfig;
use dloop_repro::ftl_kit::config::{FtlKind, SsdConfig};
use dloop_repro::ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
use dloop_repro::ftl_kit::ftl::Ftl;
use dloop_repro::ftl_kit::metrics::{report_fingerprint, RunReport};
use dloop_repro::ftl_kit::request::{HostOp, HostRequest};
use dloop_repro::ftl_kit::sched::{DeadlinePolicy, FairSharePolicy, QosSpec, TOKEN_UNITS};
use dloop_repro::nand::energy::EnergyConfig;
use dloop_repro::simkit::check::{self, Checker, Generator};
use dloop_repro::simkit::trace::attribution;
use dloop_repro::simkit::{SimDuration, SimRng, SimTime};
use dloop_repro::{check_assert, check_assert_eq};
use std::fmt::Write as _;

fn build(kind: FtlKind, config: &SsdConfig) -> Box<dyn Ftl> {
    match kind {
        FtlKind::Dloop => Box::new(DloopFtl::new(config)),
        FtlKind::Dftl => Box::new(DftlFtl::new(config)),
        other => unimplemented!("not used here: {other:?}"),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write { lpn: u64, pages: u8 },
    Read { lpn: u64, pages: u8 },
}

/// Mixed reads/writes, mostly 1-4 pages with occasional zero-page
/// requests (the normalization regression of this suite's vintage).
fn op_gen(space: u64) -> check::BoxedGenerator<Op> {
    check::weighted(vec![
        (
            6,
            (check::u64s(0..space), check::u8s(1..5))
                .map(|(lpn, pages)| Op::Write { lpn, pages })
                .boxed(),
        ),
        (
            2,
            (check::u64s(0..space), check::u8s(1..5))
                .map(|(lpn, pages)| Op::Read { lpn, pages })
                .boxed(),
        ),
        (
            1,
            check::u64s(0..space)
                .map(|lpn| Op::Write { lpn, pages: 0 })
                .boxed(),
        ),
    ])
    .boxed()
}

fn requests(ops: &[Op]) -> Vec<HostRequest> {
    let mut reqs = Vec::with_capacity(ops.len());
    let mut t = 0u64;
    for op in ops {
        t += 150;
        let (lpn, pages, kind) = match *op {
            Op::Write { lpn, pages } => (lpn, pages, HostOp::Write),
            Op::Read { lpn, pages } => (lpn, pages, HostOp::Read),
        };
        reqs.push(HostRequest {
            arrival: SimTime::from_micros(t),
            lpn,
            pages: pages as u32,
            op: kind,
            ..HostRequest::default()
        });
    }
    reqs
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Open,
    Gated,
    /// Bounded host queue at the given depth (`usize::MAX` = unbounded,
    /// which must degenerate to open arrivals).
    Closed(usize),
    /// NCQ-style bounded reordering at the given queue depth.
    Ncq(usize),
}

fn run_config(mode: Mode) -> RunConfig {
    match mode {
        Mode::Open => RunConfig::open(),
        Mode::Gated => RunConfig::gated(),
        Mode::Closed(depth) => RunConfig::closed(depth),
        Mode::Ncq(depth) => RunConfig::ncq(depth),
    }
}

fn run_mode(
    kind: FtlKind,
    config: &SsdConfig,
    reqs: &[HostRequest],
    mode: Mode,
    tracing: bool,
) -> (SsdDevice, RunReport) {
    let mut device = SsdDevice::new(config.clone(), build(kind, config));
    if tracing {
        device.set_tracing(Some(1 << 16));
    }
    let report = device.run_with(reqs, run_config(mode));
    (device, report)
}

/// Everything stateful about the flash array, as one comparable string:
/// per-page states and per-block erase counts.
fn flash_digest(device: &SsdDevice) -> String {
    let g = device.flash().geometry().clone();
    let mut s = String::new();
    for ppn in 0..g.total_physical_pages() {
        let _ = write!(s, "{:?},", device.flash().page_state(ppn));
    }
    for p in 0..g.total_planes() {
        let plane = device.flash().plane(p);
        for b in 0..plane.block_count() {
            let _ = write!(s, "e{};", plane.block(b).erase_count());
        }
    }
    s
}

fn hw_op_total(r: &RunReport) -> u64 {
    r.hw.reads + r.hw.writes + r.hw.erases + r.hw.copybacks + r.hw.interplane_copies
}

/// All four replay modes agree on what was *done*: request/page
/// accounting, flash page states, erase counts, and a passing audit.
/// Closed replay with an unbounded queue is bit-identical to open replay
/// (the generator mixes in zero-page requests, so this also locks the
/// closed driver's freed-slot drain: a stale `in_flight` count would
/// shift issue times and break the bit-identity). A depth-1 closed queue
/// serialises issue but must not change any flash state.
#[test]
fn replay_modes_agree_on_served_work_and_flash_state() {
    let gen = check::vec_of(op_gen(800), 1..200);
    Checker::new().cases(12).run(&gen, |ops| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test();
        for kind in [FtlKind::Dloop, FtlKind::Dftl] {
            let (d_open, r_open) = run_mode(kind, &config, &reqs, Mode::Open, false);
            let (d_gated, r_gated) = run_mode(kind, &config, &reqs, Mode::Gated, false);
            let (d_closed, r_closed) =
                run_mode(kind, &config, &reqs, Mode::Closed(usize::MAX), false);
            let (d_serial, r_serial) = run_mode(kind, &config, &reqs, Mode::Closed(1), false);
            let (d_ncq, r_ncq) = run_mode(kind, &config, &reqs, Mode::Ncq(4), false);
            for (mode, r) in [
                ("gated", &r_gated),
                ("closed", &r_closed),
                ("closed(1)", &r_serial),
                ("ncq", &r_ncq),
            ] {
                check_assert_eq!(r_open.pages_read, r.pages_read, "{:?} {}", kind, mode);
                check_assert_eq!(r_open.pages_written, r.pages_written, "{:?} {}", kind, mode);
                check_assert_eq!(
                    r.requests_completed,
                    reqs.len() as u64,
                    "{:?} {}",
                    kind,
                    mode
                );
                // Every request produces exactly one response sample —
                // zero-page requests included (the gated mode used to lose
                // them entirely).
                check_assert_eq!(
                    r.response_ms.count(),
                    reqs.len() as u64,
                    "{:?} {}",
                    kind,
                    mode
                );
            }
            let digest = flash_digest(&d_open);
            check_assert_eq!(digest, flash_digest(&d_gated), "{:?} gated digest", kind);
            check_assert_eq!(digest, flash_digest(&d_closed), "{:?} closed digest", kind);
            check_assert_eq!(
                digest,
                flash_digest(&d_serial),
                "{:?} closed(1) digest",
                kind
            );
            check_assert_eq!(digest, flash_digest(&d_ncq), "{:?} ncq digest", kind);
            for d in [&d_open, &d_gated, &d_closed, &d_serial, &d_ncq] {
                d.audit().map_err(|e| format!("{kind:?}: {e}"))?;
            }
            // Unbounded closed queue == open arrivals, field for field —
            // including the queue probe, which both record per request.
            check_assert_eq!(
                report_fingerprint(&r_open),
                report_fingerprint(&r_closed),
                "{:?}: closed(∞) must degenerate to open replay",
                kind
            );
        }
        Ok(())
    });
}

/// The sharded engine identity (claim C15): for every replay mode and
/// any shard count — including counts above the channel count, which
/// clamp — `RunConfig::shards(n)` leaves the report fingerprint and the
/// flash digest bit-identical to the sequential engine. The config here
/// has four channels so a 4-shard run could fan out; on these fresh,
/// partially cached devices the fast path refuses up front, and closed
/// admission and the queueing modes (gated/NCQ/QoS) replay sequentially
/// by design, so every run must be identical trivially.
#[test]
fn sharded_replay_is_bit_identical_to_sequential() {
    let gen = check::vec_of(op_gen(1200), 1..200);
    let config = SsdConfig {
        channels: 4,
        ..SsdConfig::micro_gc_test()
    };
    Checker::new().cases(8).run(&gen, |ops| {
        let reqs = requests(ops);
        for kind in [FtlKind::Dloop, FtlKind::Dftl] {
            let fresh = || SsdDevice::new(config.clone(), build(kind, &config));
            let configs: [(&str, fn() -> RunConfig); 6] = [
                ("open", RunConfig::open),
                ("closed(3)", || RunConfig::closed(3)),
                ("closed(64)", || RunConfig::closed(64)),
                ("gated", RunConfig::gated),
                ("ncq(4)", || RunConfig::ncq(4)),
                ("qos(fair)", || RunConfig::qos(QosSpec::fair_share())),
            ];
            for (name, cfg) in configs {
                let mut seq_dev = fresh();
                let seq = seq_dev.run_with(&reqs, cfg());
                for shards in [2usize, 4, 64] {
                    let mut par_dev = fresh();
                    let par = par_dev.run_with(&reqs, cfg().shards(shards));
                    check_assert_eq!(
                        report_fingerprint(&seq),
                        report_fingerprint(&par),
                        "{:?} {} sharded({}) report diverged",
                        kind,
                        name,
                        shards
                    );
                    check_assert_eq!(
                        flash_digest(&seq_dev),
                        flash_digest(&par_dev),
                        "{:?} {} sharded({}) flash state diverged",
                        kind,
                        name,
                        shards
                    );
                    par_dev
                        .audit()
                        .map_err(|e| format!("{kind:?} {name}: {e}"))?;
                }
            }
        }
        Ok(())
    });
}

/// A 4-channel micro device whose CMT holds the whole map, aged by a
/// sequential fill of `fill_pct` % of its user space, plus 3 000 uniform
/// single-page overwrites of that filled region — the regime in which
/// DLOOP attests plane-local translation (DESIGN.md §3f). Returns a
/// constructor for freshly aged devices and the overwrite trace.
fn aged_full_cmt(fill_pct: u64) -> (impl Fn() -> SsdDevice, Vec<HostRequest>) {
    use dloop_repro::workloads::synth::{sequential_fill, uniform_random, UniformParams};
    let base = SsdConfig {
        channels: 4,
        ..SsdConfig::micro_gc_test()
    };
    let config = SsdConfig {
        cmt_capacity: base.geometry().user_pages() as usize,
        ..base
    };
    let user_pages = config.geometry().user_pages();
    let fill = sequential_fill(user_pages, fill_pct as f64 / 100.0, 16);
    let trace = uniform_random(
        &UniformParams {
            requests: 3_000,
            write_ratio: 1.0,
            pages_per_req: 1,
            space_pages: user_pages * fill_pct / 100,
            rate_per_sec: 1e9,
        },
        7,
    );
    let fresh = move || {
        let mut d = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
        d.run_with(&fill.requests, RunConfig::open());
        d
    };
    (fresh, trace.requests)
}

/// The plane-local fast path (DESIGN.md §3f) must actually *engage* —
/// not just fall back to sequential replay — when its preconditions
/// hold: open arrivals, a fully-resident CMT, no media model, and every
/// plane at or above the GC threshold. `RunReport::shard_timing` is the
/// witness (only the fast path records it). The run ages the device
/// into steady GC first, overwrites a 90 % hot region so collections
/// keep every plane above threshold, and then checks the served run is
/// bit-identical to sequential and leaves an auditable device.
#[test]
fn plane_local_fast_path_engages_and_is_bit_identical() {
    let (fresh, trace) = aged_full_cmt(90);
    let mut seq_dev = fresh();
    let seq = seq_dev.run_with(&trace, RunConfig::open());
    assert!(
        seq.shard_timing.is_none(),
        "sequential runs must not report shard timing"
    );
    for shards in [2usize, 4] {
        let mut par_dev = fresh();
        let par = par_dev.run_with(&trace, RunConfig::open().shards(shards));
        let timing = par
            .shard_timing
            .as_ref()
            .expect("the plane-local fast path must serve this run");
        assert_eq!(timing.worker_ms.len(), shards);
        assert!(timing.critical_path_ms() > 0.0);
        assert_eq!(
            report_fingerprint(&seq),
            report_fingerprint(&par),
            "fast-path report diverged at {shards} shards"
        );
        assert_eq!(
            flash_digest(&seq_dev),
            flash_digest(&par_dev),
            "fast-path flash state diverged at {shards} shards"
        );
        par_dev.audit().unwrap_or_else(|e| panic!("audit: {e}"));
    }
}

/// The fast path's abort branch: on a 99 %-filled device the FTL still
/// attests plane-local translation up front, but the overwrites drive
/// some plane below the GC threshold mid-run, a worker detects the
/// impurity, every fork is discarded and the run replays sequentially.
/// The result must be indistinguishable from a sequential run: no shard
/// timing, the same report fingerprint and flash digest, and a passing
/// audit.
#[test]
fn plane_local_fast_path_aborts_to_an_identical_sequential_replay() {
    let (fresh, trace) = aged_full_cmt(99);
    let mut seq_dev = fresh();
    let seq = seq_dev.run_with(&trace, RunConfig::open());
    let mut par_dev = fresh();
    assert!(
        par_dev.ftl().shard_translation_ready(par_dev.flash()),
        "the FTL must attest readiness, so the fast path starts"
    );
    let par = par_dev.run_with(&trace, RunConfig::open().shards(2));
    assert!(
        par.shard_timing.is_none(),
        "a worker must abort the fast path on this run"
    );
    assert_eq!(report_fingerprint(&seq), report_fingerprint(&par));
    assert_eq!(flash_digest(&seq_dev), flash_digest(&par_dev));
    par_dev.audit().unwrap_or_else(|e| panic!("audit: {e}"));
}

/// Fast-path tracing forwards the per-shard span buffers into the exact
/// sequential span stream — same spans, same order — and tracing stays
/// pure observation (identical report fingerprint) under sharding.
#[test]
fn sharded_tracing_reproduces_the_sequential_span_stream() {
    use dloop_repro::simkit::trace::{span_jsonl, BufferSink};
    let (fresh, trace) = aged_full_cmt(90);
    let spans_of = |shards: usize| {
        let mut device = fresh();
        let cfg = RunConfig::open()
            .shards(shards)
            .attach_sink(Box::new(BufferSink::new()));
        let report = device.run_with(&trace, cfg);
        let buf = device
            .detach_sink()
            .expect("sink attached")
            .into_any()
            .downcast::<BufferSink>()
            .expect("buffer sink type");
        let stream: Vec<String> = buf.spans().iter().map(span_jsonl).collect();
        (stream, report)
    };
    let untraced = fresh().run_with(&trace, RunConfig::open());
    let (seq_stream, seq_report) = spans_of(1);
    assert!(!seq_stream.is_empty(), "the run must record spans");
    assert_eq!(
        report_fingerprint(&untraced),
        report_fingerprint(&seq_report),
        "tracing must stay pure"
    );
    for shards in [2usize, 4] {
        let (par_stream, par_report) = spans_of(shards);
        assert!(
            par_report.shard_timing.is_some(),
            "the plane-local fast path must serve the traced run at {shards} shards"
        );
        assert_eq!(
            report_fingerprint(&seq_report),
            report_fingerprint(&par_report),
            "tracing must stay pure under {shards} shards"
        );
        assert_eq!(seq_stream.len(), par_stream.len(), "span counts");
        for (i, (s, p)) in seq_stream.iter().zip(&par_stream).enumerate() {
            assert_eq!(s, p, "span {i} diverged at {shards} shards");
        }
    }
}

/// The pass-through host stack is pure forwarding: wrapping the device
/// in `HostStack::new(HostConfig::passthrough())` must leave the device
/// report bit-identical (full field-by-field fingerprint, the new
/// per-request completion log included) and the flash state digest
/// unchanged, in every replay mode. This is the property behind claim
/// C13's first leg — the claim checks a compact digest on one workload;
/// this test checks every field across generated workloads, zero-page
/// requests included. The host report must also mirror the device
/// timeline exactly: one log per request, `submit == arrival` (the
/// doorbell rings immediately), `deliver == done` (no coalescing), and
/// no host spans at all.
#[test]
fn passthrough_host_stack_is_bit_identical_to_the_raw_device() {
    use dloop_repro::host::{HostConfig, HostStack};

    let gen = check::vec_of(op_gen(600), 1..120);
    Checker::new().cases(8).run(&gen, |ops| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test();
        let modes = [
            ReplayMode::Open,
            ReplayMode::Gated,
            ReplayMode::Closed { queue_depth: 8 },
            ReplayMode::Ncq { queue_depth: 4 },
            ReplayMode::Qos {
                queue_depth: 4,
                policy: QosSpec::Priority,
            },
        ];
        for mode in modes {
            let mut d_raw = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
            let r_raw = d_raw.run_with(&reqs, mode.into());
            let mut d_host = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
            let stack = HostStack::new(HostConfig::passthrough());
            let host = stack.run(&mut d_host, &reqs, mode);
            check_assert_eq!(
                report_fingerprint(&r_raw),
                report_fingerprint(&host.device),
                "pass-through report diverged ({:?})",
                mode
            );
            check_assert_eq!(
                flash_digest(&d_raw),
                flash_digest(&d_host),
                "pass-through flash state diverged ({:?})",
                mode
            );
            check_assert_eq!(host.requests.len(), reqs.len(), "one log per request");
            for (i, log) in host.requests.iter().enumerate() {
                check_assert_eq!(log.arrival, reqs[i].arrival, "request {} arrival", i);
                check_assert_eq!(log.submit, log.arrival, "request {} submitted late", i);
                check_assert_eq!(log.deliver, log.done, "request {} delivery delayed", i);
                check_assert!(!log.cache_served, "request {} claims a cache hit", i);
            }
            check_assert_eq!(host.host_spans.len(), 0, "pass-through emitted host spans");
            check_assert_eq!(host.cache.read_hits + host.cache.writes_absorbed, 0);
            check_assert_eq!(host.forwarded, reqs.len() as u64, "commands forwarded");
        }
        Ok(())
    });
}

/// The interleaved driver's per-queue windows hold at every instant: no
/// submission queue ever has more than `queue_depth` commands in flight
/// (admission → interrupt delivery), across coalescing corners including
/// the one the window can never fill on its own (threshold > total
/// window with no timeout — the deadlock-rescue path), and the
/// five-instant timeline keeps tiling exactly under backpressure.
#[test]
fn interleaved_sq_windows_bound_occupancy_per_queue() {
    use dloop_repro::host::{HostConfig, HostStack};

    let gen = (
        check::vec_of(op_gen(600), 1..100),
        check::u8s(1..5),
        check::u8s(1..4),
    );
    Checker::new().cases(8).run(&gen, |(ops, depth, queues)| {
        let reqs = tag_tenants(requests(ops), *queues as u16);
        let config = SsdConfig::micro_gc_test();
        let corners = [
            (1u32, None),
            (3, Some(SimDuration::from_micros(40))),
            (16, None),
        ];
        for (threshold, timeout) in corners {
            let mut device = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
            let host = HostStack::new(HostConfig {
                queues: *queues as u32,
                queue_depth: Some(*depth as u32),
                coalesce_threshold: threshold,
                coalesce_timeout: timeout,
                ..HostConfig::passthrough()
            })
            .run(&mut device, &reqs, ReplayMode::Open);
            check_assert!(host.depth_enforced, "driver did not enforce the window");
            check_assert_eq!(host.queue_depth, Some(*depth as u32), "depth surfaced");
            for q in 0..*queues as u16 {
                let occ = host.sq_log.tenant_max_in_flight(q);
                check_assert!(
                    occ <= *depth as u64,
                    "SQ {} held {} in-flight commands at depth {} (threshold {})",
                    q,
                    occ,
                    depth,
                    threshold
                );
            }
            for (i, log) in host.requests.iter().enumerate() {
                check_assert_eq!(
                    log.host_queue_ns() + log.cache_ns() + log.device_ns() + log.completion_ns(),
                    log.end_to_end_ns(),
                    "request {} phases do not tile under backpressure",
                    i
                );
            }
        }
        Ok(())
    });
}

/// With an unbounded depth the interleaved event loop degenerates to the
/// staged reference pipeline *bit-for-bit*: the full host report
/// fingerprint (request timelines, SQ occupancy log, spans, counters)
/// matches `run_staged` on an identical device, with every host stage —
/// cache, split/merge, doorbell batching, interrupt coalescing — turned
/// on. This is the regression gate that lets the interleaved driver
/// replace the staged one as the open-mode default.
#[test]
fn unbounded_interleaved_loop_reproduces_the_staged_pipeline() {
    use dloop_repro::host::{HostConfig, HostStack};

    let gen = (check::vec_of(op_gen(600), 1..100), check::u8s(1..4));
    Checker::new().cases(8).run(&gen, |(ops, queues)| {
        let reqs = tag_tenants(requests(ops), *queues as u16);
        let config = SsdConfig::micro_gc_test();
        let host_cfg = HostConfig {
            queues: *queues as u32,
            queue_depth: None,
            doorbell_batch: 3,
            doorbell_timeout: Some(SimDuration::from_micros(25)),
            coalesce_threshold: 3,
            coalesce_timeout: Some(SimDuration::from_micros(60)),
            cache_pages: 96,
            dirty_ratio: 0.5,
            cache_hit_ns: 900,
            split_pages: 2,
            merge: true,
            drain_cache: true,
        };
        let mut d_live = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
        let live = HostStack::new(host_cfg.clone()).run(&mut d_live, &reqs, ReplayMode::Open);
        let mut d_staged = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
        let staged = HostStack::new(host_cfg).run_staged(&mut d_staged, &reqs, ReplayMode::Open);
        check_assert!(!live.depth_enforced, "no window to enforce at depth None");
        check_assert_eq!(
            live.fingerprint(),
            staged.fingerprint(),
            "unbounded interleaved run diverged from the staged pipeline"
        );
        check_assert_eq!(
            report_fingerprint(&live.device),
            report_fingerprint(&staged.device),
            "device reports diverged underneath"
        );
        check_assert_eq!(
            flash_digest(&d_live),
            flash_digest(&d_staged),
            "flash state diverged underneath"
        );
        Ok(())
    });
}

/// The flight recorder is pure observation: with tracing enabled every
/// report field stays bit-identical, in every replay mode, with and
/// without a media-fault plan — and the recorder holds exactly one span
/// per hardware operation.
#[test]
fn tracing_never_perturbs_reports() {
    let gen = check::vec_of(op_gen(600), 1..150);
    Checker::new().cases(10).run(&gen, |ops| {
        let reqs = requests(ops);
        let plain = SsdConfig::micro_gc_test();
        let faulty = SsdConfig::micro_gc_test().with_fault(FaultConfig::light(0x7A11));
        for (label, config) in [("fault-free", &plain), ("faulty", &faulty)] {
            for mode in [
                Mode::Open,
                Mode::Gated,
                Mode::Closed(usize::MAX),
                Mode::Ncq(8),
            ] {
                let (_, off) = run_mode(FtlKind::Dloop, config, &reqs, mode, false);
                let (mut traced, on) = run_mode(FtlKind::Dloop, config, &reqs, mode, true);
                check_assert_eq!(
                    report_fingerprint(&off),
                    report_fingerprint(&on),
                    "tracing changed the report ({:?}, {})",
                    mode,
                    label
                );
                let rec = traced.take_trace().expect("tracing was on");
                check_assert_eq!(
                    rec.recorded(),
                    hw_op_total(&on),
                    "span count must equal the hardware op total ({:?})",
                    mode
                );
            }
        }
        Ok(())
    });
}

/// For single-page open-mode replays the span buckets tile the report
/// exactly: request-visible residence (host + synchronous GC) equals the
/// summed response time, and the wait/service/GC-block decomposition
/// sums to the same number.
#[test]
fn attribution_reconciles_with_response_times() {
    let gen = check::vec_of(op_gen(500), 1..150);
    Checker::new().cases(10).run(&gen, |ops| {
        // Single-page requests: a multi-page response is the max over its
        // page ops, which deliberately does not telescope into span sums.
        let mut reqs = requests(ops);
        for r in &mut reqs {
            r.pages = 1;
        }
        let config = SsdConfig::micro_gc_test();
        let (mut device, report) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Open, true);
        let rec = device.take_trace().expect("tracing was on");
        check_assert_eq!(rec.dropped(), 0, "ring must hold the whole run");
        check_assert_eq!(rec.recorded(), hw_op_total(&report));
        let attr = attribution(&rec);
        let visible_ms = attr.request_visible_ns() as f64 / 1e6;
        let resp_sum_ms = report.response_ms.sum();
        let tol = 1e-6 * resp_sum_ms.max(1.0);
        check_assert!(
            (visible_ms - resp_sum_ms).abs() <= tol,
            "span residence {} ms vs summed response {} ms",
            visible_ms,
            resp_sum_ms
        );
        let decomp_ms = report.wait_ms.sum() + report.service_ms.sum() + report.gc_block_ms.sum();
        check_assert!(
            (decomp_ms - resp_sum_ms).abs() <= tol,
            "wait+service+gc_block {} ms vs summed response {} ms",
            decomp_ms,
            resp_sum_ms
        );
        Ok(())
    });
}

/// NCQ replay is fully deterministic: the same requests replayed twice
/// produce bit-identical reports (queue probe included) and identical
/// flash state. The scheduler's tie-breaks are all total orders — plane
/// ready-at, then sequence number, lanes visited in plane order — so
/// nothing depends on allocation or iteration accidents.
#[test]
fn ncq_replay_is_deterministic() {
    let gen = check::vec_of(op_gen(700), 1..180);
    Checker::new().cases(8).run(&gen, |ops| {
        let reqs = requests(ops);
        let config = SsdConfig::micro_gc_test();
        let (d_a, r_a) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Ncq(32), false);
        let (d_b, r_b) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Ncq(32), false);
        check_assert_eq!(
            report_fingerprint(&r_a),
            report_fingerprint(&r_b),
            "two NCQ replays of the same trace diverged"
        );
        check_assert_eq!(
            flash_digest(&d_a),
            flash_digest(&d_b),
            "two NCQ replays left different flash state"
        );
        Ok(())
    });
}

/// With `queue_depth: 1` the reorder window holds only the queue head,
/// so NCQ degenerates to the strict in-order queue. On a single-plane
/// device the gated scheduler cannot skip either (every write needs the
/// same plane and channel, so if the head is blocked everything is), so
/// the two must be bit-identical there — reports, probe and flash state.
#[test]
fn ncq_depth_one_is_gated_without_skipping() {
    let config = SsdConfig {
        channels: 1,
        packages_per_channel: 1,
        chips_per_package: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        ..SsdConfig::micro_gc_test()
    };
    let gen = check::vec_of(check::u64s(0..200), 1..150);
    Checker::new().cases(10).run(&gen, |lpns| {
        // Single-page writes arriving densely enough to queue: writes
        // always carry a host chain, which keeps the gated ready-check on
        // the one shared plane — the regime where skipping never fires.
        let reqs: Vec<HostRequest> = lpns
            .iter()
            .enumerate()
            .map(|(i, &lpn)| HostRequest {
                arrival: SimTime::from_micros(20 * (i as u64 + 1)),
                lpn,
                pages: 1,
                op: HostOp::Write,
                ..HostRequest::default()
            })
            .collect();
        let (d_gated, r_gated) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Gated, false);
        let (d_ncq, r_ncq) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Ncq(1), false);
        check_assert_eq!(
            report_fingerprint(&r_gated),
            report_fingerprint(&r_ncq),
            "NCQ{{1}} must replay exactly like the unskippable gated FIFO"
        );
        check_assert_eq!(flash_digest(&d_gated), flash_digest(&d_ncq));
        Ok(())
    });
}

/// Regression soak for the wake-event contract (the headline bugfix):
/// a write burst dense enough to leave a GC-heavy tail, replayed gated
/// with `background_gc: true`. Background-GC chains keep planes busy
/// *past* the host `done` time; before the fix the scheduler only woke
/// at `done`, so the queued tail either stalled until the next arrival
/// or tripped the end-of-trace `pending.is_empty()` assert.
///
/// Two properties: the replay drains (no panic, every request completes),
/// and issue times are arrival-independent — appending one far-future
/// zero-page request must not change a single response sample, which it
/// would if any queued op were waiting for an arrival to wake it.
/// `scripts/verify.sh` runs this by name as the background-GC soak.
#[test]
fn gated_background_gc_soak() {
    let config = SsdConfig {
        background_gc: true,
        ..SsdConfig::micro_gc_test()
    };
    // 10k single-page writes over a tiny LPN range: heavy overwrite
    // pressure keeps the collector running right through the tail.
    let mut reqs: Vec<HostRequest> = (0..10_000u64)
        .map(|i| HostRequest {
            arrival: SimTime::from_micros(2 * (i + 1)),
            lpn: (i * 13) % 400,
            pages: 1,
            op: HostOp::Write,
            ..HostRequest::default()
        })
        .collect();
    let (device, report) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Gated, false);
    assert_eq!(report.requests_completed, reqs.len() as u64);
    assert_eq!(report.response_ms.count(), reqs.len() as u64);
    device.audit().expect("audit after the soak");

    // Arrival independence: one zero-page straggler ten seconds later
    // adds exactly its own zero sample and changes nothing else.
    let last = reqs.last().unwrap().arrival;
    reqs.push(HostRequest {
        arrival: last + SimDuration::from_micros(10_000_000),
        lpn: 0,
        pages: 0,
        op: HostOp::Read,
        ..HostRequest::default()
    });
    let (_, with_straggler) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Gated, false);
    assert_eq!(
        with_straggler.response_ms.count(),
        report.response_ms.count() + 1
    );
    assert_eq!(
        with_straggler.response_ms.sum().to_bits(),
        report.response_ms.sum().to_bits(),
        "a far-future arrival changed burst response times: some op was \
         stalled waiting for an arrival instead of a scheduled wake"
    );
    assert_eq!(
        with_straggler.response_ms.max().unwrap().to_bits(),
        report.response_ms.max().unwrap().to_bits()
    );
}

/// Tag the requests round-robin across `tenants` host streams (tenant ids
/// `1..=tenants`, so the per-tenant CSV blocks are exercised).
fn tag_tenants(mut reqs: Vec<HostRequest>, tenants: u16) -> Vec<HostRequest> {
    for (i, r) in reqs.iter_mut().enumerate() {
        *r = r.with_tenant(1 + (i as u16 % tenants));
    }
    reqs
}

/// A policy that never discriminates degenerates to plain NCQ,
/// bit-for-bit, whether named by its [`QosSpec`] or handed over as an
/// owned instance through `run_with_policy`. Three spellings of "never discriminates": the explicit
/// [`QosSpec::Ncq`] no-op on any trace; the deadline policy on a trace
/// with no deadlines; and fair share with a *single* tenant (every
/// candidate sees the same bucket, so the rank prefix is constant within
/// each selection round). In all three cases the driver's appended
/// `(plane_ready_at, seq)` tie-break is the entire effective key.
#[test]
fn non_discriminating_qos_policies_are_bit_identical_to_ncq() {
    let gen = check::vec_of(op_gen(700), 1..150);
    Checker::new().cases(8).run(&gen, |ops| {
        let config = SsdConfig::micro_gc_test();
        for (label, reqs, spec) in [
            // Multi-tenant trace: the no-op must ignore the tags.
            ("spec-ncq", tag_tenants(requests(ops), 3), QosSpec::Ncq),
            // No deadlines anywhere: EDF has nothing to reorder.
            ("deadline", requests(ops), QosSpec::Deadline),
            // One tenant: fair share has nobody to arbitrate between.
            ("fair-share", requests(ops), QosSpec::fair_share()),
        ] {
            let (d_ncq, r_ncq) = run_mode(FtlKind::Dloop, &config, &reqs, Mode::Ncq(8), false);
            let mut d_qos = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
            let r_qos = d_qos.run_with(&reqs, RunConfig::qos(spec).queue_depth(8));
            // The probe tags tenants, so compare everything *except* the
            // tenant column for the tagged trace by overlaying fingerprints
            // only when the tags match; here the traces are identical, so
            // full fingerprints must match exactly.
            check_assert_eq!(
                report_fingerprint(&r_ncq),
                report_fingerprint(&r_qos),
                "{} must be bit-identical to plain NCQ",
                label
            );
            check_assert_eq!(
                flash_digest(&d_ncq),
                flash_digest(&d_qos),
                "{} flash state diverged from NCQ",
                label
            );
            // A caller-owned instance of the same policy replays exactly
            // like the spec spelling.
            let mut d_owned = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
            let r_owned = d_owned.run_with_policy(
                &reqs,
                RunConfig::default().queue_depth(8),
                spec.build().as_mut(),
            );
            check_assert_eq!(
                report_fingerprint(&r_owned),
                report_fingerprint(&r_qos),
                "{} owned policy diverged from its spec",
                label
            );
        }
        Ok(())
    });
}

/// Fair-share token buckets obey an exact integer conservation law per
/// tenant: `initial + refilled − issued × TOKEN_UNITS == balance`. The
/// policy instance is handed to `SsdDevice::run_with_policy` directly so
/// the buckets can be audited after the replay; every tenant that did
/// flash work must also have been charged for it.
#[test]
fn fair_share_token_buckets_conserve_tokens_over_a_replay() {
    let gen = check::vec_of(op_gen(600), 20..150);
    Checker::new().cases(8).run(&gen, |ops| {
        let reqs = tag_tenants(requests(ops), 3);
        let config = SsdConfig::micro_gc_test();
        let mut policy = FairSharePolicy::new(4, 16);
        let mut device = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
        let report =
            device.run_with_policy(&reqs, RunConfig::default().queue_depth(8), &mut policy);
        check_assert_eq!(report.requests_completed, reqs.len() as u64);
        device.audit().map_err(|e| format!("audit: {e}"))?;
        let mut charged_total = 0u64;
        for t in policy.tenants() {
            let balance = policy.balance(t).expect("bucket exists");
            let refilled = policy.refilled(t).expect("bucket exists") as i64;
            let issued = policy.issued(t).expect("bucket exists");
            check_assert_eq!(
                policy.initial_units() + refilled - issued as i64 * TOKEN_UNITS as i64,
                balance,
                "tenant {} violates the conservation law",
                t
            );
            charged_total += issued;
        }
        // Every charged issue is a ranked (non-chainless) page op the
        // probe also tracked; chainless ops bypass the policy, so the
        // charge count is bounded by the probe's unit count.
        check_assert!(
            charged_total as usize <= report.queue_log.len(),
            "charged {} ops but the probe tracked only {}",
            charged_total,
            report.queue_log.len()
        );
        Ok(())
    });
}

/// EDF never inverts two same-plane deadlines: on a single-plane device
/// (every op shares the one lane), operations must issue in deadline
/// order among the ops inside the reorder window, even though their
/// deadlines are the *reverse* of arrival order. The queue probe records
/// units in issue order, and each request carries a unique tenant id, so
/// the probe's tenant column *is* the issue order.
///
/// Three window depths: the whole burst in the window (pure deadline
/// order), a window of 4 (the lane's earliest deadline sits *outside*
/// the window for most of the replay, so the driver must offer the
/// earliest in-window deadline instead of stalling behind it), and a
/// window of 1 (FIFO). With `d = min(depth, n)` the closed form is
/// `[0, d, d+1, …, n, d−1, …, 1]`: the window's youngest op always has
/// the earliest deadline until arrivals run out, then the rest drain in
/// deadline order.
#[test]
fn edf_issues_same_plane_deadlines_in_deadline_order() {
    let config = SsdConfig {
        channels: 1,
        packages_per_channel: 1,
        chips_per_package: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        ..SsdConfig::micro_gc_test()
    };
    let n: u64 = 12;
    // An untagged blocker write at t = 0 occupies the lone plane while the
    // deadline burst arrives, so the whole burst is queued before the first
    // EDF selection happens (nothing issues on arrival just because the
    // plane happened to be idle). The burst arrives together at t = 1 µs;
    // deadlines run opposite to arrival order (the later the seq, the
    // earlier the deadline).
    let mut reqs = vec![HostRequest {
        pages: 1,
        op: HostOp::Write,
        ..HostRequest::default()
    }];
    reqs.extend((0..n).map(|i| {
        HostRequest {
            arrival: SimTime::from_micros(1),
            lpn: 1 + i,
            pages: 1,
            op: HostOp::Write,
            ..HostRequest::default()
        }
        .with_tenant(1 + i as u16)
        .with_deadline_after(SimDuration::from_micros(1000 * (n - i)))
    }));
    for depth in [n as usize + 1, 4, 1] {
        let mut device = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
        let mut policy = DeadlinePolicy;
        let report =
            device.run_with_policy(&reqs, RunConfig::default().queue_depth(depth), &mut policy);
        assert_eq!(report.requests_completed, reqs.len() as u64);
        let issue_order: Vec<u16> = report.queue_log.tracked().iter().map(|u| u.0).collect();
        // Blocker first, then the window's earliest deadline each time.
        let d = depth.min(n as usize) as u16;
        let mut expected: Vec<u16> = vec![0];
        expected.extend(d..=n as u16);
        expected.extend((1..d).rev());
        assert_eq!(
            issue_order, expected,
            "EDF at depth {depth} inverted same-plane deadlines (probe records issue order)"
        );
    }
}

/// Deep-backlog regression pin for the NCQ/QoS driver. A burst of 1600
/// tenant- and deadline-tagged mixed requests arrives far faster than a
/// 4-plane device drains it, so at every depth the pending list is many
/// times the reorder window and most lanes hold ops outside it. Each
/// policy (plain NCQ, every `QosSpec::all()` entry and the power cap,
/// with energy accounting on so its draw bounds are live) must reproduce
/// the fingerprints below, recorded with a driver that scanned every
/// pending op for each lane's first in-window entry.
#[test]
fn deep_backlog_queued_replays_match_pinned_fingerprints() {
    const DEPTHS: [usize; 3] = [1, 4, 32];
    #[rustfmt::skip]
    const PINNED: [[u64; 7]; 3] = [
        [0xc69717e0ec2109c0, 0xc69717e0ec2109c0, 0xc69717e0ec2109c0, 0xc69717e0ec2109c0,
         0xc69717e0ec2109c0, 0xc69717e0ec2109c0, 0x45709887ba8898e0],
        [0x995183517ea8dd79, 0x4a4ad5f59e2495ab, 0x995183517ea8dd79, 0x02199d2e9d465b89,
         0x9159ee16ecf695c2, 0x4d9344b694984f7c, 0xfeef528a8a488163],
        [0xeda7be7e9ef8bfb7, 0x8c6a5bfabbf44b7e, 0xeda7be7e9ef8bfb7, 0x0ad3724db076f490,
         0x66ae0efa369b2d64, 0xa9acd38d64fef0ac, 0x2ad3223b516fb10b],
    ];
    let config = SsdConfig::micro_gc_test().with_energy(EnergyConfig::paper_default());
    let mut rng = SimRng::new(0xDEE9);
    let reqs: Vec<HostRequest> = (0..50 * 32u64)
        .map(|i| {
            let op = if rng.below(3) == 0 {
                HostOp::Read
            } else {
                HostOp::Write
            };
            HostRequest {
                arrival: SimTime::from_micros(2 * i),
                lpn: rng.below(1024),
                pages: 1 + rng.below(4) as u32,
                op,
                ..HostRequest::default()
            }
            .with_tenant(1 + rng.below(3) as u16)
            .with_deadline_after(SimDuration::from_micros(rng.range_inclusive(100, 20_000)))
        })
        .collect();
    for (depth, pinned) in DEPTHS.into_iter().zip(PINNED) {
        let modes = std::iter::once(ReplayMode::Ncq { queue_depth: depth }).chain(
            QosSpec::all()
                .into_iter()
                .chain([QosSpec::power_cap()])
                .map(|policy| ReplayMode::Qos {
                    queue_depth: depth,
                    policy,
                }),
        );
        let got: Vec<u64> = modes
            .map(|mode| {
                let mut device = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
                let report = device.run_with(&reqs, mode.into());
                assert_eq!(report.requests_completed, reqs.len() as u64);
                device.audit().expect("audit");
                report_fingerprint(&report)
            })
            .collect();
        let hex: Vec<String> = got.iter().map(|f| format!("{f:#018x}")).collect();
        assert_eq!(
            got,
            pinned,
            "depth {depth}: fingerprints drifted (ncq, then QosSpec::all(), then power cap): [{}]",
            hex.join(", ")
        );
    }
}

/// Every QoS policy is deterministic: the same tenant-tagged trace
/// replayed twice produces bit-identical reports (per-tenant probe
/// included) and identical flash state, for every spec in the sweep set.
#[test]
fn qos_policies_are_deterministic_across_reruns() {
    let gen = check::vec_of(op_gen(700), 1..120);
    Checker::new().cases(4).run(&gen, |ops| {
        let reqs = tag_tenants(requests(ops), 3);
        let config = SsdConfig::micro_gc_test();
        for spec in QosSpec::all() {
            let mode = ReplayMode::Qos {
                queue_depth: 8,
                policy: spec,
            };
            let mut d_a = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
            let r_a = d_a.run_with(&reqs, mode.into());
            let mut d_b = SsdDevice::new(config.clone(), build(FtlKind::Dloop, &config));
            let r_b = d_b.run_with(&reqs, mode.into());
            check_assert_eq!(
                report_fingerprint(&r_a),
                report_fingerprint(&r_b),
                "{} diverged across reruns",
                spec.name()
            );
            check_assert_eq!(
                flash_digest(&d_a),
                flash_digest(&d_b),
                "{} left different flash state across reruns",
                spec.name()
            );
        }
        Ok(())
    });
}

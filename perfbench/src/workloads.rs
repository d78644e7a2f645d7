//! The three benchmark workloads, one repetition at a time.
//!
//! Every workload replays a timestamped trace with open arrivals in
//! simulated time; on the host each repetition is a closed loop that
//! replays the whole trace as fast as it can. A repetition is set-up
//! (trace generation, FTL and device construction, aging), the timed
//! replay, the report fingerprints and the output checks. The benchmark
//! only calls the simulator's public API; the seed reaches the program
//! only as the generated requests.

use crate::timed::{FtlClock, TimedFtl};
use dloop::DloopFtl;
use dloop_baselines::{DftlFtl, FastFtl};
use dloop_ftl_kit::config::{FtlKind, SsdConfig};
use dloop_ftl_kit::device::{ReplayMode, RunConfig, SsdDevice};
use dloop_ftl_kit::ftl::Ftl;
use dloop_ftl_kit::metrics::RunReport;
use dloop_ftl_kit::request::HostRequest;
use dloop_host::{report_fingerprint, HostConfig, HostStack};
use dloop_simkit::SimTime;
use dloop_workloads::synth::{sequential_fill, uniform_random, UniformParams};
use dloop_workloads::{host_mix, WorkloadProfile};
use std::sync::Arc;
use std::time::Instant;

/// Financial1 requests per repetition (each replayed by three FTLs).
const FIN1_REQUESTS: u64 = 200_000;
/// Single-page overwrites per repetition on the aged device.
const OVERWRITE_REQUESTS: u64 = 400_000;
/// Requests per tenant of the host mix: long enough that write-back
/// bursts build an NCQ backlog (30k per tenant builds none).
const HOST_MIX_PER_TENANT: u64 = 40_000;

/// The benchmark's workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Financial1 on the scale-4 paper device through DLOOP, DFTL and
    /// FAST: the paper's own comparison; loads the FTL layer.
    Fin1Paper,
    /// Uniform overwrites of a 90 %-filled DLOOP device on the sharded
    /// engine: GC-bound; loads the shard engine and the NAND model.
    AgedOverwrite,
    /// The three-tenant host mix through the buffered host stack in front
    /// of DLOOP under NCQ: loads the host stack and the queued scheduler.
    TenantHostNcq,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Fin1Paper,
        Workload::AgedOverwrite,
        Workload::TenantHostNcq,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fin1Paper => "fin1_paper",
            Workload::AgedOverwrite => "aged_overwrite",
            Workload::TenantHostNcq => "tenant_host_ncq",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Shards the replay asks the engine for (1 = sequential engine).
    pub fn shards(self) -> usize {
        match self {
            Workload::AgedOverwrite => dloop_ftl_kit::host_parallelism()
                .min(overwrite_config().channels as usize)
                .max(1),
            _ => 1,
        }
    }

    /// One repetition; `traced` wraps every FTL in [`TimedFtl`].
    pub fn run(self, seed: u64, traced: bool) -> Rep {
        match self {
            Workload::Fin1Paper => fin1_paper(seed, traced),
            Workload::AgedOverwrite => aged_overwrite(seed, traced),
            Workload::TenantHostNcq => tenant_host_ncq(seed, traced),
        }
    }
}

/// Host wall time of each layer call in one repetition, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Times {
    /// Workload generators.
    pub gen_s: f64,
    /// FTL construction plus `SsdDevice::new`.
    pub new_s: f64,
    /// `SsdDevice::warm_up` (the aging fill).
    pub warm_up_s: f64,
    /// The timed replay: `SsdDevice::run_with` or `HostStack::run`.
    pub replay_s: f64,
    /// `report_fingerprint` / `HostRunReport::fingerprint`.
    pub fingerprint_s: f64,
    /// `SsdDevice::audit` (an output check, not a layer of the program).
    pub audit_s: f64,
}

impl Times {
    /// Everything before the timed replay.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.new_s + self.warm_up_s
    }

    /// Sum of the timed calls, for the reconciliation residual.
    pub fn layers_s(&self) -> f64 {
        self.setup_s() + self.replay_s + self.fingerprint_s + self.audit_s
    }
}

/// Translation-layer time from the [`TimedFtl`] wrapper.
#[derive(Debug, Clone)]
pub struct FtlTime {
    /// Lower-case scheme name, as used in metric names.
    pub kind: &'static str,
    /// Seconds inside `Ftl::read`/`write` during the replay.
    pub self_s: f64,
    /// `Ftl::read`/`write` calls during the replay.
    pub calls: u64,
}

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host requests submitted (summed over the FTLs of `fin1_paper`).
    pub requests: u64,
    /// Failed output checks, human-readable.
    pub failures: Vec<String>,
    /// Report fingerprints, labelled by replay.
    pub fingerprints: Vec<(&'static str, u64)>,
    /// Layer call times.
    pub times: Times,
    /// FTL self time per scheme (traced repetitions only).
    pub ftl: Vec<FtlTime>,
    /// Engine-reported shard phases in seconds: partition, slowest fork,
    /// slowest worker replay, merge, critical path (a projection).
    pub shard: Option<[f64; 5]>,
    /// Host page operations the trace asked for.
    pub host_pages: u64,
    /// Simulated totals; identical in every repetition with one seed.
    pub sim: Sim,
}

/// Simulated work and results pooled over a repetition's replays.
#[derive(Debug, Default, Clone)]
pub struct Sim {
    /// Summed simulated response time (end-to-end for the host stack).
    pub response_ms_sum: f64,
    /// Requests the response sum covers.
    pub responses: u64,
    /// Device page reads and writes served.
    pub pages_read: u64,
    /// Device page writes served.
    pub pages_written: u64,
    /// Physical programs (host, translation and GC).
    pub programs: u64,
    /// NAND operation counts: reads, writes, erases, copy-backs and
    /// inter-plane copies.
    pub nand: [u64; 5],
    /// Plane busy nanoseconds and plane-time available (planes × end).
    pub plane_busy_ns: u128,
    /// Planes × simulated end time, in nanoseconds.
    pub plane_span_ns: u128,
    /// Highest channel utilisation of any replay.
    pub max_channel_util: f64,
    /// GC invocations per scheme.
    pub gc_invocations: Vec<(&'static str, u64)>,
    /// Valid pages moved by copy-back.
    pub copyback_moves: u64,
    /// Valid pages moved over the bus.
    pub external_moves: u64,
    /// Translation pages read (CMT misses).
    pub translation_reads: u64,
    /// Full, partial and switch merges.
    pub merges: u64,
    /// Bytes of the per-request completion logs.
    pub completions_bytes: u64,
    /// Bytes of the host-queue occupancy logs.
    pub queue_log_bytes: u64,
    /// Queued-scheduler figures (NCQ only): units, peak pending, peak in
    /// flight, mean admission wait in ms.
    pub sched: Option<(u64, u64, u64, f64)>,
    /// Host-stack counters (`tenant_host_ncq` only).
    pub host: Option<HostCounters>,
}

/// Host-stack counters of one `HostStack::run`.
#[derive(Debug, Default, Clone)]
pub struct HostCounters {
    /// Read page hits over read page lookups.
    pub cache_hit_ratio: f64,
    /// Write pages absorbed by the write-back cache.
    pub writes_absorbed: u64,
    /// Device commands forwarded.
    pub forwarded: u64,
    /// Write-back commands the cache emitted.
    pub writeback_cmds: u64,
    /// Commands split out of oversized I/Os.
    pub split_cmds: u64,
    /// Commands merged into a neighbour.
    pub merged_cmds: u64,
    /// SQ doorbell rings.
    pub doorbells: u64,
    /// Completion interrupts.
    pub interrupts: u64,
    /// Mean per-request phase times in ms: host queue, cache, device,
    /// completion.
    pub phase_ms: [f64; 4],
}

impl Sim {
    /// Fold one device report in.
    fn add(&mut self, report: &RunReport) {
        self.response_ms_sum += report.response_ms.sum();
        self.responses += report.response_ms.count();
        self.pages_read += report.pages_read;
        self.pages_written += report.pages_written;
        self.programs += report.total_programs;
        let hw = &report.hw;
        for (slot, v) in self.nand.iter_mut().zip([
            hw.reads,
            hw.writes,
            hw.erases,
            hw.copybacks,
            hw.interplane_copies,
        ]) {
            *slot += v;
        }
        let end = report.sim_end.as_nanos().max(1);
        self.plane_busy_ns += report
            .plane_busy_ns
            .iter()
            .map(|&b| b as u128)
            .sum::<u128>();
        self.plane_span_ns += report.plane_busy_ns.len() as u128 * end as u128;
        for &busy in &report.channel_busy_ns {
            self.max_channel_util = self.max_channel_util.max(busy as f64 / end as f64);
        }
        let f = &report.ftl;
        self.gc_invocations
            .push((kind_name(report.ftl_name), f.gc_invocations));
        self.copyback_moves += f.copyback_moves;
        self.external_moves += f.external_moves;
        self.translation_reads += f.translation_reads;
        self.merges += f.full_merges + f.partial_merges + f.switch_merges;
        self.completions_bytes +=
            (report.completions.len() * std::mem::size_of::<(u64, SimTime, SimTime)>()) as u64;
        self.queue_log_bytes += (report.queue_log.len()
            * std::mem::size_of::<(u16, SimTime, SimTime, SimTime)>())
            as u64;
    }

    /// Simulated flash operations of every kind.
    pub fn flash_ops(&self) -> u64 {
        self.nand.iter().sum()
    }

    /// Simulated mean response time.
    pub fn mean_response_ms(&self) -> f64 {
        self.response_ms_sum / self.responses.max(1) as f64
    }

    /// Physical programs per host page written.
    pub fn waf(&self) -> f64 {
        self.programs as f64 / self.pages_written.max(1) as f64
    }
}

/// Lower-case scheme name for metric keys.
fn kind_name(ftl_name: &str) -> &'static str {
    match ftl_name {
        "DLOOP" => "dloop",
        "DFTL" => "dftl",
        "FAST" => "fast",
        other => panic!("benchmark replays no {other} FTL"),
    }
}

/// Run `f`, adding its wall time to `acc`.
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *acc += start.elapsed().as_secs_f64();
    r
}

impl Rep {
    /// Build one FTL (wrapped when traced) and its device.
    fn device(
        &mut self,
        kind: FtlKind,
        config: &SsdConfig,
        traced: bool,
    ) -> (SsdDevice, Option<Arc<FtlClock>>) {
        timed(&mut self.times.new_s, || {
            let ftl: Box<dyn Ftl> = match kind {
                FtlKind::Dloop => Box::new(DloopFtl::new(config)),
                FtlKind::Dftl => Box::new(DftlFtl::new(config)),
                FtlKind::Fast => Box::new(FastFtl::new(config)),
                other => panic!("benchmark replays no {other:?} FTL"),
            };
            let (ftl, clock) = if traced {
                let (ftl, clock) = TimedFtl::wrap(ftl);
                (ftl, Some(clock))
            } else {
                (ftl, None)
            };
            (SsdDevice::new(config.clone(), ftl), clock)
        })
    }

    /// Replay through `replay`, recording the FTL time the clock saw
    /// during the replay alone (aging calls excluded).
    fn replay<R>(
        &mut self,
        name: &'static str,
        clock: &Option<Arc<FtlClock>>,
        replay: impl FnOnce() -> R,
    ) -> R {
        let before = clock.as_ref().map(|c| c.snapshot());
        let report = timed(&mut self.times.replay_s, replay);
        if let (Some(clock), Some((ns0, calls0))) = (clock, before) {
            let (ns, calls) = clock.snapshot();
            self.ftl.push(FtlTime {
                kind: kind_name(name),
                self_s: (ns - ns0) as f64 / 1e9,
                calls: calls - calls0,
            });
        }
        report
    }

    /// The device-level output checks: audit and completion count.
    fn check_device(&mut self, label: &str, device: &SsdDevice, completed: u64, submitted: u64) {
        if let Err(e) = timed(&mut self.times.audit_s, || device.audit()) {
            self.failures.push(format!("{label}: audit failed: {e}"));
        }
        if completed != submitted {
            self.failures.push(format!(
                "{label}: {completed} requests completed of {submitted} submitted"
            ));
        }
    }

    /// Fingerprint a device report and fold it into the totals.
    fn finish_device(&mut self, report: &RunReport) {
        let fp = timed(&mut self.times.fingerprint_s, || report_fingerprint(report));
        self.fingerprints.push((report.ftl_name, fp));
        self.sim.add(report);
        if let Some(t) = &report.shard_timing {
            self.shard = Some([
                t.partition_ms / 1e3,
                t.max_fork_ms() / 1e3,
                t.max_worker_ms() / 1e3,
                t.merge_ms / 1e3,
                t.critical_path_ms() / 1e3,
            ]);
        }
    }
}

fn host_pages(requests: &[HostRequest]) -> u64 {
    requests.iter().map(|r| r.pages as u64).sum()
}

/// `paper_default().with_capacity_gb(2)` with Financial1's footprint
/// divided by 4, replayed open by DLOOP, DFTL and FAST on fresh devices,
/// exactly as the `headline` experiment's `run_spec` does at scale 4.
fn fin1_paper(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let config = SsdConfig::paper_default().with_capacity_gb(2);
    let page_size = config.geometry().page_size;
    let trace = timed(&mut rep.times.gen_s, || {
        let mut profile = WorkloadProfile::financial1();
        profile.footprint_bytes = (profile.footprint_bytes / 4).max(1 << 28);
        profile.generate_scaled(seed, page_size, FIN1_REQUESTS)
    });
    for kind in FtlKind::paper_set() {
        let (mut device, clock) = rep.device(kind, &config, traced);
        let report = rep.replay(kind.name(), &clock, || {
            device.run_with(&trace.requests, RunConfig::open())
        });
        rep.check_device(
            kind.name(),
            &device,
            report.requests_completed,
            trace.len() as u64,
        );
        rep.requests += trace.len() as u64;
        rep.host_pages += host_pages(&trace.requests);
        rep.finish_device(&report);
    }
    rep
}

/// The `shard` experiment's device: the scale-4 paper device with a
/// mapping table that holds the whole map.
fn overwrite_config() -> SsdConfig {
    let base = SsdConfig::paper_default().with_capacity_gb(1);
    SsdConfig {
        cmt_capacity: base.geometry().user_pages() as usize,
        ..base
    }
}

/// Uniform single-page overwrites of the first 90 % of the logical space,
/// after a sequential fill of the same region ages the device, replayed on
/// `min(host cpus, channels)` shards.
fn aged_overwrite(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let config = overwrite_config();
    let user_pages = config.geometry().user_pages();
    let (fill, trace) = timed(&mut rep.times.gen_s, || {
        let fill = sequential_fill(user_pages, 0.9, 64);
        let params = UniformParams {
            requests: OVERWRITE_REQUESTS,
            write_ratio: 1.0,
            pages_per_req: 1,
            space_pages: user_pages * 9 / 10,
            rate_per_sec: 1e9,
        };
        (fill, uniform_random(&params, seed))
    });
    let (mut device, clock) = rep.device(FtlKind::Dloop, &config, traced);
    timed(&mut rep.times.warm_up_s, || device.warm_up(&fill.requests));
    let shards = Workload::AgedOverwrite.shards();
    let report = rep.replay("DLOOP", &clock, || {
        device.run_with(&trace.requests, RunConfig::open().shards(shards))
    });
    rep.check_device(
        "DLOOP",
        &device,
        report.requests_completed,
        trace.len() as u64,
    );
    rep.requests = trace.len() as u64;
    rep.host_pages = host_pages(&trace.requests);
    rep.finish_device(&report);
    rep
}

/// The host-cache contention mix through `HostConfig::buffered` (cache of
/// an eighth of the user pages) in front of DLOOP under 32-deep NCQ, on
/// the `host` experiment's scale-4 device.
fn tenant_host_ncq(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let config = SsdConfig::paper_default().with_capacity_gb(1);
    let geometry = config.geometry();
    let trace = timed(&mut rep.times.gen_s, || {
        let footprint = geometry.user_pages() * geometry.page_size as u64 / 2;
        host_mix(seed, geometry.page_size, HOST_MIX_PER_TENANT, footprint)
    });
    let (mut device, clock) = rep.device(FtlKind::Dloop, &config, traced);
    let stack = HostStack::new(HostConfig::buffered(geometry.user_pages() / 8));
    let report = rep.replay("DLOOP", &clock, || {
        stack.run(
            &mut device,
            &trace.requests,
            ReplayMode::Ncq { queue_depth: 32 },
        )
    });
    rep.check_device(
        "DLOOP",
        &device,
        report.device.requests_completed,
        report.forwarded,
    );
    if report.requests.len() != trace.len() {
        rep.failures.push(format!(
            "host stack logged {} requests of {} submitted",
            report.requests.len(),
            trace.len()
        ));
    }
    rep.requests = trace.len() as u64;
    rep.host_pages = host_pages(&trace.requests);

    let fp = timed(&mut rep.times.fingerprint_s, || report.fingerprint());
    rep.fingerprints.push(("HOST", fp));
    rep.sim.add(&report.device);
    rep.sim.response_ms_sum = report.mean_end_to_end_ms() * trace.len() as f64;
    rep.sim.responses = trace.len() as u64;
    rep.sim.sched = Some(sched_figures(&report.device));

    let n = report.requests.len().max(1) as f64;
    let (queue, cache, dev, completion, _) = report.phase_totals_ns();
    let lookups = report.cache.read_hits + report.cache.read_misses;
    rep.sim.host = Some(HostCounters {
        cache_hit_ratio: report.cache.read_hits as f64 / lookups.max(1) as f64,
        writes_absorbed: report.cache.writes_absorbed,
        forwarded: report.forwarded,
        writeback_cmds: report.writeback_commands,
        split_cmds: report.split_commands,
        merged_cmds: report.merged_commands,
        doorbells: report.queues.doorbells,
        interrupts: report.queues.interrupts,
        phase_ms: [queue, cache, dev, completion].map(|ns| ns as f64 / 1e6 / n),
    });
    rep
}

/// Queued-scheduler figures from the device's occupancy log: units,
/// peak pending (a sweep of `[arrival, issue)`), peak in flight and the
/// mean admission wait in ms.
fn sched_figures(report: &RunReport) -> (u64, u64, u64, f64) {
    let units = report.queue_log.tracked();
    let mut events: Vec<(u64, i8)> = Vec::with_capacity(units.len() * 2);
    let mut wait_ns = 0u128;
    for &(_, arrival, issue, _) in units {
        events.push((arrival.as_nanos(), 1));
        events.push((issue.as_nanos(), -1));
        wait_ns += (issue.as_nanos() - arrival.as_nanos()) as u128;
    }
    // Half-open intervals: at equal instants the issue (-1) sorts first.
    events.sort_unstable();
    let (mut pending, mut peak) = (0i64, 0i64);
    for (_, d) in events {
        pending += d as i64;
        peak = peak.max(pending);
    }
    let mean_wait_ms = wait_ns as f64 / 1e6 / units.len().max(1) as f64;
    (
        units.len() as u64,
        peak as u64,
        report.queue_log.max_in_flight(),
        mean_wait_ms,
    )
}

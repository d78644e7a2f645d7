//! Host-time benchmark of the DLOOP simulator.
//!
//! ```text
//! perfbench --workload <fin1_paper|aged_overwrite|tenant_host_ncq|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run repeats one workload (set-up, timed replay, fingerprint, output
//! checks) until `--seconds` have passed and reports medians over the
//! repetitions. `--trace 0` reports the end-to-end metrics from untraced
//! repetitions. `--trace 1` alternates untraced and traced repetitions —
//! traced ones wrap every FTL in a timing wrapper — and reports the
//! per-layer metrics; every repetition's fingerprints must equal the
//! first's, so tracing provably leaves the simulation unchanged. Human-
//! readable lines come first; the last line of standard output is one JSON
//! object. A failed check marks all of that repetition's requests failed
//! and makes the process exit with status 1. See `perfbench/README.md`.

mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Rep, Workload};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("host_pages_per_s", "page/s"),
    ("flash_ops_per_s", "op/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mean_response_ms", "ms"),
    ("sim_waf", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units. A metric that does not
/// apply to a workload (another workload's FTL, the shard engine when it
/// did not serve the run, the queued scheduler and host stack outside
/// `tenant_host_ncq`) reads 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("workloads.gen_s", "s"),
    ("device.new_s", "s"),
    ("device.warm_up_s", "s"),
    ("device.replay_s", "s"),
    ("device.nonftl_s", "s"),
    ("ftl.dloop.self_s", "s"),
    ("ftl.dloop.ns_per_call", "ns"),
    ("ftl.dloop.calls", "count"),
    ("ftl.dloop.gc_invocations", "count"),
    ("ftl.dftl.self_s", "s"),
    ("ftl.dftl.ns_per_call", "ns"),
    ("ftl.dftl.calls", "count"),
    ("ftl.dftl.gc_invocations", "count"),
    ("ftl.fast.self_s", "s"),
    ("ftl.fast.ns_per_call", "ns"),
    ("ftl.fast.calls", "count"),
    ("ftl.fast.gc_invocations", "count"),
    ("ftl.translation_reads_per_page", "ratio"),
    ("ftl.gc_invocations", "count"),
    ("ftl.gc_moves_per_host_write", "ratio"),
    ("ftl.copyback_fraction", "ratio"),
    ("ftl.merges", "count"),
    ("nand.reads", "count"),
    ("nand.writes", "count"),
    ("nand.erases", "count"),
    ("nand.copybacks", "count"),
    ("nand.interplane_copies", "count"),
    ("nand.mean_plane_util", "ratio"),
    ("nand.max_channel_util", "ratio"),
    ("shard.count", "count"),
    ("shard.host_cpus", "count"),
    ("shard.engaged", "flag"),
    ("shard.partition_s", "s"),
    ("shard.fork_s", "s"),
    ("shard.replay_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.projected_critical_path_s", "s"),
    ("sched.units", "count"),
    ("sched.peak_pending", "count"),
    ("sched.max_in_flight", "count"),
    ("sched.mean_wait_ms", "ms"),
    ("host.cache_hit_ratio", "ratio"),
    ("host.writes_absorbed", "count"),
    ("host.forwarded", "count"),
    ("host.writeback_cmds", "count"),
    ("host.split_cmds", "count"),
    ("host.merged_cmds", "count"),
    ("host.doorbells", "count"),
    ("host.interrupts", "count"),
    ("host.queue_ms", "ms"),
    ("host.cache_ms", "ms"),
    ("host.device_ms", "ms"),
    ("host.completion_ms", "ms"),
    ("report.fingerprint_s", "s"),
    ("report.completions_bytes", "B"),
    ("report.queue_log_bytes", "B"),
    ("trace.overhead", "ratio"),
    ("trace.residual_s", "s"),
];

/// Repetitions a run makes at least, whatever `--seconds` says: enough
/// for a median, and for `--trace 1` two untraced and two traced.
const MIN_REPS: usize = 4;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One repetition with its bookkeeping.
struct Run {
    rep: Rep,
    traced: bool,
    wall_s: f64,
}

/// Repeat `workload` while another repetition fits in `seconds` (judged by
/// the slower of the last two); with `trace`, every second repetition is
/// traced.
fn measure(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Vec<Run> {
    let start = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    let fits = |runs: &[Run]| {
        let next = runs
            .iter()
            .rev()
            .take(2)
            .map(|r| r.wall_s)
            .fold(0.0, f64::max);
        start.elapsed().as_secs_f64() + next <= seconds
    };
    while runs.len() < MIN_REPS || fits(&runs) {
        let traced = trace && runs.len() % 2 == 1;
        let t = Instant::now();
        let rep = workload.run(seed, traced);
        runs.push(Run {
            rep,
            traced,
            wall_s: t.elapsed().as_secs_f64(),
        });
    }
    runs
}

/// Fail every repetition whose fingerprints differ from the first one's:
/// reruns must be deterministic and tracing must not change the model.
fn check_fingerprints(runs: &mut [Run]) {
    let reference = runs[0].rep.fingerprints.clone();
    for (i, run) in runs.iter_mut().enumerate().skip(1) {
        if run.rep.fingerprints != reference {
            run.rep.failures.push(format!(
                "repetition {i} (traced: {}) fingerprints {} differ from repetition 0's {}",
                run.traced,
                show_fingerprints(&run.rep.fingerprints),
                show_fingerprints(&reference)
            ));
        }
    }
}

fn show_fingerprints(fps: &[(&str, u64)]) -> String {
    fps.iter()
        .map(|(name, fp)| format!("{name}={fp:#018x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median of `f` over the repetitions `keep` selects.
fn median_of(runs: &[Run], keep: impl Fn(&Run) -> bool, f: impl Fn(&Run) -> f64) -> f64 {
    median(runs.iter().filter(|r| keep(r)).map(f).collect())
}

/// VmHWM of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset VmHWM to the current RSS so the next workload's peak is its own.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: could not reset VmHWM ({e}); peak_rss_mb may include earlier work of this process");
    }
}

fn end_to_end(runs: &[Run]) -> BTreeMap<String, f64> {
    let untraced = |r: &Run| !r.traced;
    let sim = &runs[0].rep.sim;
    BTreeMap::from([
        (
            "host_pages_per_s".into(),
            median_of(runs, untraced, |r| {
                r.rep.host_pages as f64 / r.rep.times.replay_s
            }),
        ),
        (
            "flash_ops_per_s".into(),
            median_of(runs, untraced, |r| {
                r.rep.sim.flash_ops() as f64 / r.rep.times.replay_s
            }),
        ),
        (
            "setup_s".into(),
            median_of(runs, |_| true, |r| r.rep.times.setup_s()),
        ),
        ("peak_rss_mb".into(), peak_rss_mb()),
        ("sim_mean_response_ms".into(), sim.mean_response_ms()),
        ("sim_waf".into(), sim.waf()),
    ])
}

fn per_layer(workload: Workload, runs: &[Run]) -> BTreeMap<String, f64> {
    let all = |_: &Run| true;
    let traced = |r: &Run| r.traced;
    let untraced = |r: &Run| !r.traced;
    let rep0 = &runs[0].rep;
    let sim = &rep0.sim;
    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };

    put(
        "workloads.gen_s",
        median_of(runs, all, |r| r.rep.times.gen_s),
    );
    put("device.new_s", median_of(runs, all, |r| r.rep.times.new_s));
    put(
        "device.warm_up_s",
        median_of(runs, all, |r| r.rep.times.warm_up_s),
    );
    let replay_s = median_of(runs, traced, |r| r.rep.times.replay_s);
    put("device.replay_s", replay_s);
    put(
        "device.nonftl_s",
        median_of(runs, traced, |r| {
            r.rep.times.replay_s - r.rep.ftl.iter().map(|f| f.self_s).sum::<f64>()
        }),
    );
    let traced_rep = &runs
        .iter()
        .find(|r| r.traced)
        .expect("traced repetition")
        .rep;
    for (i, f) in traced_rep.ftl.iter().enumerate() {
        let kind = f.kind;
        put(
            &format!("ftl.{kind}.self_s"),
            median_of(runs, traced, |r| r.rep.ftl[i].self_s),
        );
        put(
            &format!("ftl.{kind}.ns_per_call"),
            median_of(runs, traced, |r| {
                r.rep.ftl[i].self_s * 1e9 / r.rep.ftl[i].calls.max(1) as f64
            }),
        );
        put(&format!("ftl.{kind}.calls"), f.calls as f64);
    }
    for &(kind, gc) in &sim.gc_invocations {
        put(&format!("ftl.{kind}.gc_invocations"), gc as f64);
    }
    let device_pages = (sim.pages_read + sim.pages_written).max(1) as f64;
    let moves = sim.copyback_moves + sim.external_moves;
    put(
        "ftl.translation_reads_per_page",
        sim.translation_reads as f64 / device_pages,
    );
    put(
        "ftl.gc_invocations",
        sim.gc_invocations.iter().map(|g| g.1).sum::<u64>() as f64,
    );
    put(
        "ftl.gc_moves_per_host_write",
        moves as f64 / sim.pages_written.max(1) as f64,
    );
    put(
        "ftl.copyback_fraction",
        sim.copyback_moves as f64 / moves.max(1) as f64,
    );
    put("ftl.merges", sim.merges as f64);
    let nand = [
        "reads",
        "writes",
        "erases",
        "copybacks",
        "interplane_copies",
    ];
    for (name, count) in nand.iter().zip(sim.nand) {
        put(&format!("nand.{name}"), count as f64);
    }
    put(
        "nand.mean_plane_util",
        sim.plane_busy_ns as f64 / sim.plane_span_ns.max(1) as f64,
    );
    put("nand.max_channel_util", sim.max_channel_util);

    put("shard.count", workload.shards() as f64);
    put("shard.host_cpus", dloop_ftl_kit::host_parallelism() as f64);
    put("shard.engaged", traced_rep.shard.is_some() as u8 as f64);
    let phases = [
        "partition_s",
        "fork_s",
        "replay_s",
        "merge_s",
        "projected_critical_path_s",
    ];
    for (i, phase) in phases.iter().enumerate() {
        put(
            &format!("shard.{phase}"),
            median_of(runs, traced, |r| r.rep.shard.map_or(0.0, |s| s[i])),
        );
    }
    if let Some((units, peak_pending, max_in_flight, wait_ms)) = sim.sched {
        put("sched.units", units as f64);
        put("sched.peak_pending", peak_pending as f64);
        put("sched.max_in_flight", max_in_flight as f64);
        put("sched.mean_wait_ms", wait_ms);
    }
    if let Some(h) = &sim.host {
        put("host.cache_hit_ratio", h.cache_hit_ratio);
        put("host.writes_absorbed", h.writes_absorbed as f64);
        put("host.forwarded", h.forwarded as f64);
        put("host.writeback_cmds", h.writeback_cmds as f64);
        put("host.split_cmds", h.split_cmds as f64);
        put("host.merged_cmds", h.merged_cmds as f64);
        put("host.doorbells", h.doorbells as f64);
        put("host.interrupts", h.interrupts as f64);
        for (name, ms) in ["queue_ms", "cache_ms", "device_ms", "completion_ms"]
            .iter()
            .zip(h.phase_ms)
        {
            put(&format!("host.{name}"), ms);
        }
    }
    put(
        "report.fingerprint_s",
        median_of(runs, traced, |r| r.rep.times.fingerprint_s),
    );
    put("report.completions_bytes", sim.completions_bytes as f64);
    put("report.queue_log_bytes", sim.queue_log_bytes as f64);
    let untraced_replay_s = median_of(runs, untraced, |r| r.rep.times.replay_s);
    put("trace.overhead", replay_s / untraced_replay_s - 1.0);
    put(
        "trace.residual_s",
        median_of(runs, traced, |r| r.wall_s - r.rep.times.layers_s()),
    );
    m
}

/// Order `values` as `schema` lists them, printing each with its unit;
/// metrics that do not apply read 0.
fn select(
    prefix: &str,
    schema: &[(&'static str, &'static str)],
    mut values: BTreeMap<String, f64>,
) -> Vec<(String, &'static str, f64)> {
    let out = schema
        .iter()
        .map(|&(name, unit)| {
            let v = values.remove(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("metric {prefix}{name} = {v} {unit}");
            (format!("{prefix}{name}"), unit, v)
        })
        .collect();
    assert!(
        values.is_empty(),
        "metrics missing from the schema: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fin1_paper|aged_overwrite|tenant_host_ncq|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host_cpus = dloop_ftl_kit::host_parallelism();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for &workload in &args.workloads {
        reset_peak_rss();
        let mut runs = measure(workload, args.seed, args.seconds, args.trace);
        check_fingerprints(&mut runs);
        println!(
            "# workload={} seed={} trace={} host_cpus={host_cpus} shards={} repetitions={} \
             (traced {})",
            workload.name(),
            args.seed,
            args.trace as u8,
            workload.shards(),
            runs.len(),
            runs.iter().filter(|r| r.traced).count()
        );
        println!(
            "fingerprint workload={} seed={} {}",
            workload.name(),
            args.seed,
            show_fingerprints(&runs[0].rep.fingerprints)
        );
        println!(
            "replay_s per repetition: {}",
            runs.iter()
                .map(|r| format!(
                    "{:.4}{}",
                    r.rep.times.replay_s,
                    if r.traced { "t" } else { "" }
                ))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for (i, run) in runs.iter().enumerate() {
            attempted += run.rep.requests;
            if !run.rep.failures.is_empty() {
                failed += run.rep.requests;
                for f in &run.rep.failures {
                    println!("FAILED workload={} repetition={i}: {f}", workload.name());
                }
            }
        }
        let prefix = if args.workloads.len() > 1 {
            format!("{}.", workload.name())
        } else {
            String::new()
        };
        if args.trace {
            let layers = per_layer(workload, &runs);
            let residual = layers["trace.residual_s"];
            let wall = median_of(&runs, |r| r.traced, |r| r.wall_s);
            metrics.extend(select(&prefix, &PER_LAYER, layers));
            println!(
                "note: residual = repetition wall minus the timed calls (generation, \
                 construction, warm-up, replay, fingerprint, audit): {:.2} % of {wall:.3} s",
                100.0 * residual / wall
            );
            if workload.shards() > 1 {
                println!(
                    "note: with {} shards the engine translates on forks of the inner FTL in \
                     its workers; that time is in shard.replay_s, not ftl.*.self_s",
                    workload.shards()
                );
            }
            println!(
                "note: shard.* phases are engine-reported (ShardTiming); \
                 shard.projected_critical_path_s is a projection for one core per shard, \
                 measured on {host_cpus} host cpus"
            );
        } else {
            metrics.extend(select(&prefix, &END_TO_END, end_to_end(&runs)));
        }
    }
    let body = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

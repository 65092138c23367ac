//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! datagrid-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                    [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it (`run: {...}`) carries the digest and repetition counts.
//! `perfbench/run.py` builds this binary and runs it, one fresh process
//! per workload.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use datagrid_perfbench::trace::{self_times_ns, Span, Tracer};
use datagrid_perfbench::workload::{
    fnv1a64, instance_seed, run_probe, run_rep, time_setup, Counters, Fetch, Probe, Rep, Size,
    Status, Workload, DEFAULT_SEED,
};
use datagrid_simnet::stats::percentile;

/// Untraced/traced/probe cycles a traced run makes even when
/// `--seconds` has passed.
const MIN_TRACED_CYCLES: usize = 3;

/// Setup-only passes after each timed repetition of an untraced run.
/// Setup takes milliseconds, so `setup_s` needs many samples.
const SETUP_PASSES: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::BurstContended,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected seconds >= 0"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What a run keeps of a repetition once its fetches are checked.
struct Outcome {
    digest: u64,
    sim_failed: usize,
    sim_span_s: f64,
    p50_s: f64,
    p99_s: f64,
}

impl Outcome {
    fn of(rep: &Rep) -> Outcome {
        let latencies: Vec<f64> = rep.fetches.iter().map(Fetch::latency_s).collect();
        Outcome {
            digest: rep.digest(),
            sim_failed: rep.failed(),
            sim_span_s: rep.sim_span_s,
            p50_s: percentile(&latencies, 0.50),
            p99_s: percentile(&latencies, 0.99),
        }
    }
}

/// Host seconds of one untraced repetition that passed its check.
struct Timing {
    loop_s: f64,
    wall_s: f64,
    /// Simulated seconds its loop advanced.
    sim_span_s: f64,
}

/// Counts of instance 0's first repetition, for the per-layer metrics.
struct Detail {
    fetches: u64,
    attempts: u64,
    failovers: u64,
    delivered: u64,
    moved: u64,
    counters: Counters,
}

impl Detail {
    fn of(rep: &Rep) -> Detail {
        let f = &rep.fetches;
        Detail {
            fetches: f.len() as u64,
            attempts: f.iter().map(|x| u64::from(x.attempts)).sum(),
            failovers: f.iter().map(|x| u64::from(x.failovers)).sum(),
            delivered: f
                .iter()
                .filter(|x| x.status == Status::Completed)
                .map(|x| x.bytes)
                .sum(),
            moved: f.iter().map(|x| x.payload_moved).sum(),
            counters: rep.counters,
        }
    }
}

/// One seeded instance of the workload within a run.
struct Instance {
    seed: u64,
    /// The first repetition's results, which every later repetition of
    /// this instance must reproduce exactly.
    reference: Option<Outcome>,
    /// Some repetition broke an invariant or the reference digest.
    broken: bool,
}

/// Everything one run measured.
struct Run {
    /// Fetches one repetition submits.
    fetches: usize,
    instances: Vec<Instance>,
    /// Every timed untraced repetition.
    timings: Vec<Timing>,
    /// Host seconds of every setup the untraced run timed.
    setups: Vec<f64>,
    traced_spans: Vec<(usize, Vec<Span>)>,
    overhead: Vec<f64>,
    probes: Vec<(usize, Probe)>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Instance 0's counts, from its first repetition.
    detail: Option<Detail>,
    /// Digest lines of instance 0's first repetition.
    reference_lines: String,
}

impl Run {
    fn new(seed: u64, k: usize, fetches: usize) -> Run {
        Run {
            fetches,
            instances: (0..k)
                .map(|i| Instance {
                    seed: instance_seed(seed, i),
                    reference: None,
                    broken: false,
                })
                .collect(),
            timings: Vec::new(),
            setups: Vec::new(),
            traced_spans: Vec::new(),
            overhead: Vec::new(),
            probes: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            detail: None,
            reference_lines: String::new(),
        }
    }

    /// Checks a repetition of instance `i`. One that broke an invariant
    /// or whose digest differs from the instance's first repetition
    /// fails every fetch the workload submits. Returns whether it passed.
    fn check(&mut self, i: usize, label: &str, rep: &Rep) -> bool {
        if i == 0 && self.detail.is_none() {
            self.detail = Some(Detail::of(rep));
            self.reference_lines = rep.digest_lines();
        }
        let out = Outcome::of(rep);
        let n = self.fetches as u64;
        self.attempted += n;
        let inst = &mut self.instances[i];
        let mut bad = rep.violations.clone();
        if let Some(r) = &inst.reference {
            if r.digest != out.digest {
                bad.push(format!(
                    "digest {:016x} differs from the first repetition's {:016x}",
                    out.digest, r.digest
                ));
            }
        }
        let passed = bad.is_empty();
        if !passed {
            self.failed += n;
            inst.broken = true;
            for b in bad.into_iter().take(5) {
                self.problems
                    .push(format!("{label} instance {i} (seed {}): {b}", inst.seed));
            }
        }
        if inst.reference.is_none() {
            inst.reference = Some(out);
        }
        passed
    }

    /// The instances that ran, each with its first repetition's results.
    fn references(&self) -> impl Iterator<Item = (&Instance, &Outcome)> {
        self.instances
            .iter()
            .filter_map(|inst| inst.reference.as_ref().map(|r| (inst, r)))
    }

    /// The instances that ran and passed every check; only they enter
    /// the simulated metrics.
    fn sound(&self) -> impl Iterator<Item = (&Instance, &Outcome)> {
        self.references().filter(|(inst, _)| !inst.broken)
    }

    /// Digest of the whole run: the instance digests in order.
    fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .references()
            .flat_map(|(_, r)| r.digest.to_le_bytes())
            .collect();
        fnv1a64(&bytes)
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Sum of `f` over the timed repetitions.
fn total(run: &Run, f: fn(&Timing) -> f64) -> f64 {
    run.timings.iter().map(f).sum()
}

/// Fetches that did not complete, as a share of fetches, over the run's
/// instances: a fetch fails when it ends `Failed` or in an error, or when
/// a repetition of its instance failed the output check. Add-one
/// smoothed, so a run without failures reads `1 / (fetches + 1)`, not 0.
fn fetch_fail_ratio(run: &Run) -> f64 {
    let (failed, fetches) = run.references().fold((0, 0), |(f, n), (inst, r)| {
        let failed = if inst.broken {
            run.fetches
        } else {
            r.sim_failed
        };
        (f + failed, n + run.fetches)
    });
    (failed + 1) as f64 / (fetches + 1) as f64
}

fn end_to_end(run: &Run, peak_rss_mb: f64) -> Vec<Metric> {
    let of_refs =
        |f: fn(&Outcome) -> f64| median(&run.sound().map(|(_, r)| f(r)).collect::<Vec<_>>());
    // Host times pool every timed repetition, so each instance weighs by
    // its work and a stretch of contention weighs by its length.
    let reps = run.timings.len().max(1) as f64;
    let loop_s = total(run, |t| t.loop_s);
    // Setup takes milliseconds, so one stretch of contention covers many
    // setups in a row; the fastest of the run's hundreds is steady.
    let setup_s = run.setups.iter().copied().fold(f64::INFINITY, f64::min);
    vec![
        metric("wall_s", total(run, |t| t.wall_s) / reps, "s"),
        metric("setup_s", setup_s, "s"),
        metric(
            "us_per_fetch",
            loop_s * 1e6 / (reps * run.fetches as f64),
            "us",
        ),
        metric(
            "sim_s_per_wall_s",
            total(run, |t| t.sim_span_s) / loop_s.max(1e-12),
            "sim_s/s",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric(
            "fetch_fail_ratio",
            fetch_fail_ratio(run),
            "failed/attempted",
        ),
        metric("sim_makespan_s", of_refs(|r| r.sim_span_s), "sim_s"),
        metric("sim_fetch_p50_s", of_refs(|r| r.p50_s), "sim_s"),
        metric("sim_fetch_p99_s", of_refs(|r| r.p99_s), "sim_s"),
    ]
}

/// Host time per call, in microseconds, of every span named `name`.
fn call_us(spans: &[&[Span]], name: &str) -> Vec<f64> {
    spans
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-3)
        .collect()
}

/// Summed self time, in ms, of the spans with one of `names` in a trace.
fn self_ms(spans: &[Span], own: &[u64], names: &[&str]) -> f64 {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| names.contains(&s.name))
        .map(|(_, ns)| *ns as f64 * 1e-6)
        .sum()
}

/// The spans of the replay or fetch loop's calls into the program.
const LOOP_SPANS: &[&str] = &["core.replay_concurrent", "gridftp.fetch_with_recovery"];

/// Span names whose self time is reported as a layer; all other spans of
/// a repetition count as `bench.other_ms`.
const LAYER_SPANS: [(&str, &[&str]); 8] = [
    ("testbed.build_ms", &["testbed.build"]),
    ("testbed.workload_gen_ms", &["testbed.workload_gen"]),
    ("catalog.install_ms", &["catalog.install"]),
    ("sysmon.warm_up_ms", &["sysmon.warm_up"]),
    ("core.resolve_jobs_ms", &["core.resolve_jobs"]),
    ("simnet.install_faults_ms", &["simnet.install_faults"]),
    ("core.loop_ms", LOOP_SPANS),
    ("obs.export_ms", &["obs.export"]),
];

fn per_layer(run: &Run) -> Vec<Metric> {
    let mut out = Vec::new();
    let traces: Vec<(&[Span], Vec<u64>)> = run
        .traced_spans
        .iter()
        .map(|(_, spans)| (spans.as_slice(), self_times_ns(spans)))
        .collect();
    for (name, spans) in LAYER_SPANS {
        let per_rep: Vec<f64> = traces
            .iter()
            .map(|(s, own)| self_ms(s, own, spans))
            .collect();
        out.push(metric(name, median(&per_rep), "ms"));
    }
    let other: Vec<f64> = traces
        .iter()
        .map(|(s, own)| {
            let total: f64 = own.iter().map(|ns| *ns as f64 * 1e-6).sum();
            let layers: f64 = LAYER_SPANS
                .iter()
                .map(|(_, names)| self_ms(s, own, names))
                .sum();
            total - layers
        })
        .collect();
    out.push(metric("bench.other_ms", median(&other), "ms"));

    let probe_spans: Vec<&[Span]> = run.probes.iter().map(|(_, p)| p.spans.as_slice()).collect();
    let idle: Vec<f64> = call_us(&probe_spans, "sysmon.idle_hour")
        .iter()
        .map(|us| us * 1e-3)
        .collect();
    out.push(metric("sysmon.idle_ms_per_sim_hour", median(&idle), "ms"));
    let idle_events = run
        .probes
        .iter()
        .find(|(i, _)| *i == 0)
        .map_or(0, |(_, p)| p.idle_hour_events);
    out.push(metric(
        "sysmon.idle_events_per_sim_hour",
        idle_events as f64,
        "count",
    ));

    // Counts come from instance 0, so they repeat exactly for a seed.
    let Some(r) = run.detail.as_ref() else {
        return out;
    };
    let k = r.counters;
    let count = |name, v: u64| metric(name, v as f64, "count");
    out.push(count("simnet.events", k.events));
    out.push(count("simnet.solves", k.solves));
    out.push(count("simnet.flows_touched", k.flows_touched));
    out.push(metric(
        "simnet.flows_per_solve",
        ratio(k.flows_touched, k.solves),
        "flows/solve",
    ));
    out.push(count("simnet.solves_avoided", k.solves_avoided));
    out.push(count("simnet.fault_transitions", k.fault_transitions));
    out.push(count("simnet.scratch_high_water", k.scratch_high_water));
    let ns_per_event: Vec<f64> = traces
        .iter()
        .zip(&run.traced_spans)
        .filter(|(_, (i, _))| *i == 0)
        .map(|((s, own), _)| self_ms(s, own, LOOP_SPANS) * 1e6 / k.events.max(1) as f64)
        .collect();
    out.push(metric(
        "simnet.replay_ns_per_event",
        median(&ns_per_event),
        "ns/event",
    ));

    let miss = call_us(&probe_spans, "core.score_miss");
    out.push(metric(
        "core.score_miss_us_p50",
        percentile(&miss, 0.50),
        "us",
    ));
    out.push(metric(
        "core.score_miss_us_p99",
        percentile(&miss, 0.99),
        "us",
    ));
    out.push(count("core.score_miss_samples", miss.len() as u64));
    let hit = call_us(&probe_spans, "core.score_hit");
    out.push(metric(
        "core.score_hit_us_p50",
        percentile(&hit, 0.50),
        "us",
    ));
    out.push(count("core.score_hit_samples", hit.len() as u64));
    let lookups = k.scratch_hits + k.scratch_misses;
    out.push(metric(
        "core.scratch_hit_ratio",
        ratio(k.scratch_hits, lookups),
        "ratio",
    ));
    out.push(count("core.scratch_lookups", lookups));
    out.push(count("core.decide_calls", k.decide_calls));
    out.push(count("core.settle_calls", k.settle_calls));
    out.push(metric(
        "core.attempts_per_fetch",
        ratio(r.attempts, r.fetches),
        "attempts/fetch",
    ));
    out.push(count("core.failovers", r.failovers));
    out.push(count("core.retry_calls", k.retry_calls));

    out.push(metric(
        "gridftp.goodput_ratio",
        ratio(r.delivered, r.moved),
        "ratio",
    ));
    out.push(metric(
        "gridftp.payload_moved_bytes",
        r.moved as f64,
        "bytes",
    ));
    // Only paper-sequential's loop makes these calls; elsewhere 0 samples.
    let rep_spans: Vec<&[Span]> = run.traced_spans.iter().map(|(_, s)| s.as_slice()).collect();
    let fetch_us = call_us(&rep_spans, "gridftp.fetch_with_recovery");
    out.push(metric(
        "gridftp.fetch_us_p50",
        percentile(&fetch_us, 0.50),
        "us",
    ));
    out.push(metric(
        "gridftp.fetch_us_p99",
        percentile(&fetch_us, 0.99),
        "us",
    ));
    out.push(count("gridftp.fetch_samples", fetch_us.len() as u64));

    out.push(metric("obs.export_bytes", k.export_bytes as f64, "bytes"));
    out.push(count("obs.events_dropped", k.events_dropped));
    out.push(count("obs.decisions_dropped", k.decisions_dropped));
    out.push(metric(
        "bench.trace_overhead_ratio",
        median(&run.overhead),
        "ratio",
    ));
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.correct(),
        run.attempted,
        run.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Writes instance 0's digest lines and, for a traced run, every span.
fn write_outputs(args: &Args, run: &Run) -> Result<(), String> {
    let Some(dir) = &args.out else {
        return Ok(());
    };
    let write = |name: String, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{}-{}", args.workload.name(), args.seed);
    write(format!("{stem}.digest.txt"), &run.reference_lines)?;
    if !args.trace {
        return Ok(());
    }
    let mut lines = String::new();
    let traces = run
        .traced_spans
        .iter()
        .enumerate()
        .map(|(n, (i, spans))| (format!("{stem}:i{i}:rep{n}"), spans))
        .chain(
            run.probes
                .iter()
                .enumerate()
                .map(|(n, (i, p))| (format!("{stem}:i{i}:probe{n}"), &p.spans)),
        );
    for (trace, spans) in traces {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                lines,
                "{{\"trace\": \"{trace}\", \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
    }
    write(format!("{stem}.spans.jsonl"), &lines)
}

/// One process runs the whole workload. It warms up with one untimed
/// repetition of instance 0, then rotates over the run's instances until
/// `--seconds` have passed and every instance ran at least once (so
/// instance 0 always has a repetition to check against the first). An
/// untraced run times each repetition and follows it with
/// [`SETUP_PASSES`] timed setups. A traced run cycles: untraced, traced
/// (both timed, for the overhead), and the layer probes.
fn run(args: &Args) -> Result<(Run, Vec<Metric>), String> {
    let (w, size) = (args.workload, Size::Full);
    let k = w.instances(size);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut run = Run::new(args.seed, k, w.fetches(size));
    let warm = run_rep(w, size, args.seed, Tracer::new(false));
    run.check(0, "warm-up", &warm);
    drop(warm);
    // One repetition's peak; later ones add only the allocator's growth.
    let peak_rss_mb = peak_rss_mib()?;
    let mut r = 0;
    loop {
        let i = r % k;
        let seed = run.instances[i].seed;
        let plain = run_rep(w, size, seed, Tracer::new(false));
        let passed = run.check(i, "untraced", &plain);
        if args.trace {
            let traced = run_rep(w, size, seed, Tracer::new(true));
            run.check(i, "traced", &traced);
            run.overhead
                .push(traced.wall_ns as f64 / plain.wall_ns.max(1) as f64 - 1.0);
            run.traced_spans.push((i, traced.spans));
            let probe = run_probe(w, size, seed, Tracer::new(true));
            for v in probe.violations.iter().take(5) {
                run.problems.push(format!("probe instance {i}: {v}"));
            }
            run.probes.push((i, probe));
        } else if passed {
            run.timings.push(Timing {
                loop_s: plain.loop_ns as f64 * 1e-9,
                wall_s: plain.wall_ns as f64 * 1e-9,
                sim_span_s: plain.sim_span_s,
            });
            run.setups.push(plain.setup_ns as f64 * 1e-9);
            // A setup that fails has already failed this repetition's check.
            let setups = (0..SETUP_PASSES).filter_map(|_| time_setup(w, size, seed).ok());
            run.setups.extend(setups.map(|ns| ns as f64 * 1e-9));
        }
        r += 1;
        let enough = if args.trace { MIN_TRACED_CYCLES } else { k };
        if r >= enough && Instant::now() >= deadline {
            break;
        }
    }
    write_outputs(args, &run)?;
    let metrics = if args.trace {
        per_layer(&run)
    } else {
        end_to_end(&run, peak_rss_mb)
    };
    Ok((run, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("datagrid-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (run, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("datagrid-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &run.problems {
        eprintln!("check failed: {p}");
    }
    for m in &metrics {
        println!("{:<36} {:>22} {}", m.name, json_number(m.value), m.unit);
    }
    let digests: Vec<String> = run
        .references()
        .map(|(_, r)| format!("\"{:016x}\"", r.digest))
        .collect();
    println!(
        "run: {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"instances_run\": {}, \"fetches_per_instance\": {}, \"digest\": \"{:016x}\", \"instance_digests\": [{}]}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        digests.len(),
        run.fetches,
        run.digest(),
        digests.join(", ")
    );
    println!("{}", result_line(&run, &metrics));
    ExitCode::SUCCESS
}

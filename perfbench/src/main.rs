//! `perfbench` — the two-clock benchmark of the Snapify reproduction.
//!
//! ```text
//! perfbench --workload <serve-zipf|ckpt-suite|fleet-d2> --seed <n> --seconds <s> --trace <0|1>
//! perfbench schema          # print BENCHMARK.json
//! ```
//!
//! Every workload run is its own child process (this executable with
//! `child …`), so peak RSS and CPU time belong to one run. With
//! `--trace 0` the parent repeats measured runs for `--seconds`, times
//! the set-up on its own, checks every output and prints the end-to-end
//! metrics; with `--trace 1` it pairs untraced and traced runs and
//! prints the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod schema;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use schema::{Metric, END_TO_END, PER_LAYER};
use stats::{
    checked_percentile, fnv1a, median, ratio, samples_needed, splitmix64, valid_metric_name,
    FNV_BASIS,
};
use workloads::{RunOpts, Workload};

/// Set-up-only runs per benchmark run, `setup_s` being their median: at
/// least the minimum, then more while they have taken under
/// [`SETUP_MIN_S`] in total (a set-up of a few milliseconds needs many
/// runs for a steady median).
const SETUP_REPEATS: (usize, usize) = (3, 25);
/// Set-up wall seconds a run gathers before it stops repeating.
const SETUP_MIN_S: f64 = 1.0;
/// Measured runs per benchmark run at the least, however long they take:
/// `cpu_s` is their median.
const MIN_RUNS: u64 = 2;
/// No new child starts once a run has used this many seconds, so a run
/// ends well inside its time limit.
const RUN_BUDGET_S: f64 = 150.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("schema") => {
            print!("{}", schema::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("child") => child_main(&args[1..]),
        _ => match Cli::parse(&args) {
            Ok(cli) => bench_main(&cli),
            Err(e) => {
                eprintln!("perfbench: {e}");
                eprintln!(
                    "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                    Workload::ALL.map(Workload::name).join("|")
                );
                ExitCode::from(2)
            }
        },
    }
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let workload = flag(args, "--workload").ok_or("missing --workload")?;
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let seed = flag(args, "--seed")
            .unwrap_or("0")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = flag(args, "--seconds")
            .map_or(Ok(schema::RUN_SECONDS as f64), str::parse)
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], got {seconds}"));
        }
        let trace = match flag(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(Cli {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

// ---------------------------------------------------------------------
// Child: one workload run, reported as `key value` lines
// ---------------------------------------------------------------------

fn child_main(args: &[String]) -> ExitCode {
    let Some(workload) = flag(args, "--workload").and_then(Workload::parse) else {
        eprintln!("perfbench child: bad --workload");
        return ExitCode::from(2);
    };
    let Some(seed) = flag(args, "--seed").and_then(|s| s.parse().ok()) else {
        eprintln!("perfbench child: bad --seed");
        return ExitCode::from(2);
    };
    let opts = RunOpts {
        workload,
        seed,
        setup_only: args.iter().any(|a| a == "--setup"),
        traced: args.iter().any(|a| a == "--traced"),
        domains: flag(args, "--domains")
            .and_then(|d| d.parse().ok())
            .unwrap_or(workload.domains()),
    };
    // A run on one time domain executes one sim-thread at a time: keep
    // its thread handoffs on one CPU instead of bouncing them between
    // CPUs, whose wake-up cost swings with the host's other load.
    if opts.domains == 1 && !host::pin_to_one_cpu() {
        eprintln!("perfbench child: could not pin to one CPU; running unpinned");
    }
    let (ticks0, cpu0) = (host::cpu_seconds(), host::process_cpu_s());
    let t = Instant::now();
    let out = workloads::run(&opts);
    let wall = t.elapsed().as_secs_f64();
    let (ticks1, cpu1) = (host::cpu_seconds(), host::process_cpu_s());

    let mut lines = vec![
        format!("wall_s {wall}"),
        format!("cpu_s {}", cpu1 - cpu0),
        format!("cpu_user_s {}", ticks1.0 - ticks0.0),
        format!("cpu_sys_s {}", ticks1.1 - ticks0.1),
        format!("peak_rss_mb {}", host::peak_rss_mb()),
        format!("virtual_s {}", out.virtual_s),
        format!("events {}", out.events),
        format!("attempted {}", out.attempted),
        format!("failed {}", out.failed),
        format!("digest {}", out.digest),
    ];
    let maps = [
        ("v.", &out.virt),
        ("l.", &out.layers),
        ("span.", &out.spans),
    ];
    for (prefix, map) in maps {
        lines.extend(map.iter().map(|(k, v)| format!("{prefix}{k} {v}")));
    }
    for (series, vs) in &out.samples {
        lines.extend(vs.iter().map(|v| format!("sample.{series} {v}")));
    }
    lines.extend(out.check_failures.iter().map(|m| format!("fail {m}")));
    println!("{}", lines.join("\n"));
    ExitCode::SUCCESS
}

/// A child run as the parent reads it back.
#[derive(Debug, Default)]
struct ChildRun {
    scalars: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
    digest: u64,
    failures: Vec<String>,
}

impl ChildRun {
    fn parse(text: &str) -> Result<ChildRun, String> {
        let mut run = ChildRun::default();
        let mut saw_digest = false;
        for line in text.lines() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            if key == "fail" {
                run.failures.push(value.to_string());
                continue;
            }
            if key == "digest" {
                run.digest = value
                    .parse()
                    .map_err(|e| format!("digest {value:?}: {e}"))?;
                saw_digest = true;
                continue;
            }
            let name = key.split_once('.').map_or(key, |(_, rest)| rest);
            if !valid_metric_name(name) {
                return Err(format!("child line {line:?}: bad metric name"));
            }
            let v: f64 = value
                .parse()
                .map_err(|e| format!("child line {line:?}: {e}"))?;
            match key.strip_prefix("sample.") {
                Some(series) => run.samples.entry(series.into()).or_default().push(v),
                None => {
                    run.scalars.insert(key.to_string(), v);
                }
            }
        }
        if !saw_digest {
            return Err("child printed no digest".into());
        }
        Ok(run)
    }

    fn get(&self, key: &str) -> f64 {
        self.scalars.get(key).copied().unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------
// Parent: repeat runs, check, aggregate
// ---------------------------------------------------------------------

/// Everything one benchmark run observed, for the result line.
struct Bench {
    workload: Workload,
    seed: u64,
    start: Instant,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn sub_seed(&self, i: u64) -> u64 {
        splitmix64(self.seed.wrapping_mul(64).wrapping_add(i))
    }

    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn fail(&mut self, msg: impl AsRef<str>) {
        eprintln!("perfbench: CHECK FAILED: {}", msg.as_ref());
        self.correct = false;
    }

    /// Run one child; a crashed or unreadable child fails the run.
    fn child(&mut self, seed: u64, setup: bool, traced: bool, domains: u32) -> Option<ChildRun> {
        let exe = std::env::current_exe().expect("own executable path");
        let mut cmd = Command::new(exe);
        cmd.args(["child", "--workload", self.workload.name()])
            .args([
                "--seed",
                &seed.to_string(),
                "--domains",
                &domains.to_string(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if setup {
            cmd.arg("--setup");
        }
        if traced {
            cmd.arg("--traced");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                self.fail(format!("could not start a child run: {e}"));
                return None;
            }
        };
        if !output.status.success() {
            self.fail(format!("child run exited with {}", output.status));
            return None;
        }
        match ChildRun::parse(&String::from_utf8_lossy(&output.stdout)) {
            Ok(run) => {
                for f in &run.failures {
                    self.fail(f);
                }
                if !setup {
                    self.attempted += run.get("attempted") as u64;
                    self.failed += run.get("failed") as u64;
                }
                Some(run)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Fleet only: the digest at one domain must equal the measured
    /// run's. Returns the one-domain run.
    fn fleet_domain_check(&mut self, seed: u64, measured: &ChildRun) -> Option<ChildRun> {
        let serial = self.child(seed, false, false, 1)?;
        if serial.digest != measured.digest {
            self.fail(format!(
                "fleet digest differs across domain counts: {:#018x} at 1, {:#018x} at {}",
                serial.digest,
                measured.digest,
                workloads::FLEET_DOMAINS
            ));
        }
        Some(serial)
    }
}

fn bench_main(cli: &Cli) -> ExitCode {
    let mut bench = Bench {
        workload: cli.workload,
        seed: cli.seed,
        start: Instant::now(),
        correct: true,
        attempted: 0,
        failed: 0,
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={}",
        cli.workload.name(),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let metrics = if cli.trace {
        traced_run(&mut bench, cli.seconds)
    } else {
        timed_run(&mut bench, cli.seconds)
    };
    if bench.attempted == 0 {
        bench.fail("no operation was attempted");
        bench.attempted = 1;
    }
    println!("{}", result_json(&bench, &metrics));
    ExitCode::SUCCESS
}

/// Print one metric by name with its unit.
fn show(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<28} {value:>14.6} {unit:<6} {note}");
}

/// `--trace 0`: measured runs for `seconds`, set-up runs, checks and the
/// end-to-end metrics.
fn timed_run(bench: &mut Bench, seconds: f64) -> Vec<(Metric, f64)> {
    let w = bench.workload;
    let round = w.round();
    let mut runs: Vec<(u64, ChildRun)> = Vec::new();
    let mut i = 0;
    loop {
        let seed = bench.sub_seed(i % round);
        let Some(run) = bench.child(seed, false, false, w.domains()) else {
            break;
        };
        runs.push((i % round, run));
        i += 1;
        let last = runs.last().map_or(0.0, |(_, r)| r.get("wall_s"));
        if (i >= round.max(MIN_RUNS) && bench.elapsed() >= seconds)
            || bench.elapsed() + last > RUN_BUDGET_S
        {
            break;
        }
    }
    if (runs.len() as u64) < round {
        bench.fail(format!(
            "only {} of {round} runs of a round completed",
            runs.len()
        ));
    }
    // Same sub-seed, same simulated results: across processes too.
    for (k, run) in &runs {
        let first = &runs.iter().find(|(j, _)| j == k).expect("present").1;
        if run.digest != first.digest {
            let msg = format!("sub-seed {k} replayed to a different digest");
            bench.fail(msg);
        }
    }
    if w == Workload::FleetD2 {
        if let Some((_, first)) = runs.first() {
            let seed = bench.sub_seed(0);
            bench.fleet_domain_check(seed, first);
        }
    }
    // (cpu_s, wall_s) of each set-up-only run.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    while setups.len() < SETUP_REPEATS.0
        || (setups.len() < SETUP_REPEATS.1
            && setups.iter().map(|(_, wall)| wall).sum::<f64>() < SETUP_MIN_S)
    {
        let seed = bench.sub_seed(0);
        let Some(run) = bench.child(seed, true, false, w.domains()) else {
            break;
        };
        setups.push((run.get("cpu_s"), run.get("wall_s")));
    }

    // Virtual metrics come from exactly one round, so they are exact per
    // seed however many runs fit in the time.
    let round_runs: Vec<&ChildRun> = runs.iter().take(round as usize).map(|(_, r)| r).collect();
    let mut virtual_digest = FNV_BASIS;
    for r in &round_runs {
        virtual_digest = fnv1a(virtual_digest, &r.digest.to_le_bytes());
    }
    let per_run = |key: &str| -> Vec<f64> { runs.iter().map(|(_, r)| r.get(key)).collect() };
    let virtual_s =
        round_runs.iter().map(|r| r.get("virtual_s")).sum::<f64>() / round_runs.len().max(1) as f64;

    println!("{} (seed {}):", w.name(), bench.seed);
    println!("  virtual_digest               {virtual_digest:#018x}");
    for (k, r) in round_runs.iter().enumerate() {
        println!("  run_digest[{k}]                {:#018x}", r.digest);
    }
    let mut named = Vec::new();
    for m in schema::virtual_metrics(w) {
        let (value, note) = virtual_metric(bench, &round_runs, m.name);
        show(m.name, value, m.unit, &note);
        named.push(value);
    }
    let setup_cpu: Vec<f64> = setups.iter().map(|(cpu, _)| *cpu).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|(_, wall)| *wall).collect();
    let values = [
        median(&per_run("cpu_s")),
        median(&setup_cpu),
        median(&per_run("peak_rss_mb")),
        virtual_s,
    ];
    let notes = [
        format!("median of {} runs, set-up included", runs.len()),
        format!("median of {} set-up-only runs", setups.len()),
        "median VmHWM, one process per run".to_string(),
        format!("mean over a round of {round} sub-seed(s)"),
    ];
    let mut metrics = Vec::new();
    for (((m, _), v), note) in END_TO_END.iter().zip(values).zip(notes) {
        show(m.name, v, m.unit, &note);
        metrics.push((*m, v));
    }
    // Wall time swings with the host's other load far more than CPU time
    // does, so it is printed here rather than bounded in the result line.
    let host = [
        ("wall_s", median(&per_run("wall_s")), "median wall per run"),
        (
            "setup_wall_s",
            median(&setup_wall),
            "median wall per set-up-only run",
        ),
        (
            "cpu_user_s",
            median(&per_run("cpu_user_s")),
            "median per run",
        ),
        ("cpu_sys_s", median(&per_run("cpu_sys_s")), "median per run"),
    ];
    for (name, v, note) in host {
        show(name, v, "s", note);
    }
    if named.iter().any(|v| v.is_nan() || *v <= 0.0) {
        bench.fail("a virtual metric is zero or missing");
    }
    metrics
}

/// One workload-specific virtual metric, with a note on its sample set.
fn virtual_metric(bench: &mut Bench, round: &[&ChildRun], name: &str) -> (f64, String) {
    let pooled = |series: &str| -> Vec<f64> {
        round
            .iter()
            .flat_map(|r| r.samples.get(series).into_iter().flatten().copied())
            .collect()
    };
    let first = round.first().map_or(0.0, |r| r.get(&format!("v.{name}")));
    match name.split_once(".p") {
        Some((series, p)) if matches!(series, "checkpoint_s" | "restart_s" | "migrate_s") => {
            let samples = pooled(series);
            let p: f64 = p.parse().expect("percentile suffix");
            match checked_percentile(&samples, p) {
                Ok(v) => (v, format!("n={}", samples.len())),
                Err(e) => {
                    bench.fail(format!("{name}: {e}"));
                    (0.0, e)
                }
            }
        }
        Some((series, p)) => {
            // Serving percentiles come from the program's own sketches;
            // check their sample rule from the counts it reports.
            let class = series.trim_end_matches("_ms");
            let count = round
                .first()
                .map_or(0.0, |r| r.get(&format!("v.{class}.count")));
            let p: f64 = p.parse().expect("percentile suffix");
            if (count as usize) < samples_needed(p) {
                bench.fail(format!(
                    "{name}: {count} samples, p{p} needs {}",
                    samples_needed(p)
                ));
            }
            (first, format!("n={count}"))
        }
        None => (first, String::new()),
    }
}

/// `--trace 1`: untraced/traced run pairs for `seconds` and the
/// per-layer metrics.
fn traced_run(bench: &mut Bench, seconds: f64) -> Vec<(Metric, f64)> {
    let w = bench.workload;
    let seed = bench.sub_seed(0);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut serial = Vec::new();
    while let (Some(u), Some(t)) = (
        bench.child(seed, false, false, w.domains()),
        bench.child(seed, false, true, w.domains()),
    ) {
        if t.digest != u.digest {
            let msg = format!(
                "tracing changed the simulated results: digest {:#018x} traced, {:#018x} untraced",
                t.digest, u.digest
            );
            bench.fail(msg);
        }
        for (k, v) in &u.scalars {
            if k.starts_with("v.") && t.scalars.get(k) != Some(v) {
                let msg = format!("tracing changed {k}: {v} untraced");
                bench.fail(msg);
            }
        }
        if w == Workload::FleetD2 {
            if let Some(s) = bench.fleet_domain_check(seed, &u) {
                serial.push(s.get("wall_s"));
            }
        }
        plain.push(u);
        traced.push(t);
        if bench.elapsed() >= seconds || bench.elapsed() > RUN_BUDGET_S / 2.0 {
            break;
        }
    }
    let Some(first_traced) = traced.first() else {
        return Vec::new();
    };
    let med = |runs: &[ChildRun], key: &str| -> f64 {
        median(&runs.iter().map(|r| r.get(key)).collect::<Vec<_>>())
    };
    let wall = med(&plain, "wall_s");
    let (user, sys) = (med(&plain, "cpu_user_s"), med(&plain, "cpu_sys_s"));
    let events = first_traced.get("events");
    let mut layers: BTreeMap<String, f64> = first_traced
        .scalars
        .iter()
        .filter_map(|(k, v)| k.strip_prefix("l.").map(|k| (k.to_string(), *v)))
        .collect();
    for m in PER_LAYER.iter().filter(|m| m.name.starts_with("bench.")) {
        layers.insert(m.name.into(), med(&plain, &format!("span.{}", m.name)));
    }
    layers.insert("simkernel.wall_s".into(), wall);
    layers.insert("simkernel.events".into(), events);
    layers.insert("simkernel.ns_per_event".into(), ratio(wall * 1e9, events));
    layers.insert("simkernel.cpu_user_s".into(), user);
    layers.insert("simkernel.cpu_sys_s".into(), sys);
    layers.insert("simkernel.sys_frac".into(), ratio(sys, user + sys));
    layers.insert("simkernel.virtual_s".into(), first_traced.get("virtual_s"));
    layers.insert("domain.parallel_eff".into(), ratio(median(&serial), wall));
    layers.insert(
        "obs.overhead_frac".into(),
        ratio(med(&traced, "wall_s") - wall, wall),
    );

    println!(
        "{} (seed {}), {} untraced/traced pair(s):",
        w.name(),
        bench.seed,
        plain.len()
    );
    PER_LAYER
        .iter()
        .map(|m| {
            let v = layers.get(m.name).copied().unwrap_or(0.0);
            show(m.name, v, m.unit, "");
            (*m, v)
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn result_json(bench: &Bench, metrics: &[(Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.correct,
        bench.attempted,
        bench.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_round_trip() {
        let text = "wall_s 1.5\ndigest 42\nv.ttfc_ms.p50 3.25\nsample.checkpoint_s 2\n\
                    sample.checkpoint_s 4\nfail serve: bad\n";
        let run = ChildRun::parse(text).unwrap();
        assert_eq!(run.get("wall_s"), 1.5);
        assert_eq!(run.get("v.ttfc_ms.p50"), 3.25);
        assert_eq!(run.get("missing"), 0.0);
        assert_eq!(run.digest, 42);
        assert_eq!(run.samples["checkpoint_s"], vec![2.0, 4.0]);
        assert_eq!(run.failures, vec!["serve: bad".to_string()]);
        assert!(ChildRun::parse("wall_s 1\n").is_err());
        assert!(ChildRun::parse("digest 1\nwall_s x\n").is_err());
        assert!(ChildRun::parse("digest 1\nv.a b 1\n").is_err());
    }

    #[test]
    fn cli_rejects_bad_arguments() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let cli = Cli::parse(&args("--workload fleet-d2 --seed 7 --seconds 5 --trace 1")).unwrap();
        assert_eq!(cli.workload, Workload::FleetD2);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 5.0, true));
        assert!(Cli::parse(&args("--workload nope")).is_err());
        assert!(Cli::parse(&args("--workload fleet-d2 --trace 2")).is_err());
        assert!(Cli::parse(&args("--workload fleet-d2 --seconds 0")).is_err());
        assert!(Cli::parse(&args("--seed 1")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let bench = Bench {
            workload: Workload::ServeZipf,
            seed: 0,
            start: Instant::now(),
            correct: true,
            attempted: 3,
            failed: 0,
        };
        let line = result_json(
            &bench,
            &[(END_TO_END[0].0, 1.25), (END_TO_END[1].0, f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}

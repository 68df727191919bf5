//! The three workloads, each run once per child process against the
//! public library API. A run yields an [`Outcome`]: the virtual results
//! and their digest, the output checks, the attempted/failed operation
//! counts and the benchmark's own wall-clock spans around the calls it
//! made. A traced run (obs recording plus kernel trace length) adds the
//! per-layer counters.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use snapify_repro::coi_sim::FunctionRegistry;
use snapify_repro::serving::{
    run_scenario, ArrivalProcess, EvictionPolicy, ServingConfig, ServingReport, TrafficConfig,
};
use snapify_repro::simkernel::{self, obs, Kernel, SimDuration};
use snapify_repro::snapify::{
    checkpoint_application, restart_application, snapify_capture, snapify_pause, snapify_swapin,
    snapify_wait, FleetConfig, FleetReport, FleetScheduler, SnapifyError, SnapifyT, SnapifyWorld,
};
use snapify_repro::workloads::{register_suite, suite, WorkloadRun, WorkloadSpec};

use crate::stats::{fnv1a, ratio, splitmix64, FNV_BASIS};

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Zipf traffic over a swapped-out tenant population.
    ServeZipf,
    /// The paper's Fig 10 checkpoint / restart / migrate path.
    CkptSuite,
    /// The fleet control plane on two parallel time domains.
    FleetD2,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [Workload::ServeZipf, Workload::CkptSuite, Workload::FleetD2];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeZipf => "serve-zipf",
            Workload::CkptSuite => "ckpt-suite",
            Workload::FleetD2 => "fleet-d2",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sub-seeds whose runs together make one sample set of the
    /// virtual metrics. The checkpoint suite needs four runs to give
    /// its p90 ten samples beyond it.
    pub fn round(self) -> u64 {
        match self {
            Workload::CkptSuite => 4,
            Workload::ServeZipf | Workload::FleetD2 => 1,
        }
    }

    /// Time domains the measured run uses.
    pub fn domains(self) -> u32 {
        match self {
            Workload::FleetD2 => FLEET_DOMAINS,
            Workload::ServeZipf | Workload::CkptSuite => 1,
        }
    }
}

/// Parallel time domains of `fleet-d2`; kept at the host's core count.
pub const FLEET_DOMAINS: u32 = 2;
/// Proactive migrations `fleet-d2` plans (and must all commit).
pub const FLEET_MIGRATIONS: usize = 12;
/// Requests `serve-zipf` replays: p99 then has 20 samples beyond it.
pub const SERVE_REQUESTS: usize = 2000;
/// Swap workers of `serve-zipf` (also the denominator of its busy share).
pub const SERVE_WORKERS: usize = 4;
/// `checkpoint_application` calls per app and `ckpt-suite` run.
pub const CHECKPOINTS_PER_APP: usize = 4;

/// How one child process runs its workload.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Which workload.
    pub workload: Workload,
    /// The sub-seed every generated input derives from.
    pub seed: u64,
    /// Run only the set-up (the measured phase emptied).
    pub setup_only: bool,
    /// Record obs and the kernel trace length.
    pub traced: bool,
    /// Time domains (fleet only).
    pub domains: u32,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Virtual-clock results by name (exact per seed).
    pub virt: BTreeMap<String, f64>,
    /// Virtual-clock samples pooled across a round for percentiles.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer counters and virtual totals (traced runs fill most).
    pub layers: BTreeMap<String, f64>,
    /// The benchmark's wall-clock seconds around public calls.
    pub spans: BTreeMap<String, f64>,
    /// Digest of every simulated result of the run.
    pub digest: u64,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Rejected requests, `Err` results and rolled-back migrations.
    pub failed: u64,
    /// Simulated seconds.
    pub virtual_s: f64,
    /// Kernel events (0 when the trace was off).
    pub events: u64,
    /// Failed output checks, as messages.
    pub check_failures: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    fn span(&mut self, name: &str, since: Instant) {
        *self.spans.entry(name.to_string()).or_default() += since.elapsed().as_secs_f64();
    }

    fn fold(&mut self, bytes: &[u8]) {
        self.digest = fnv1a(self.digest, bytes);
    }
}

/// Run one workload as `opts` says. Must be called from a plain (not
/// simulated) thread; the process-wide obs recorder is enabled for a
/// traced run.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome {
        digest: FNV_BASIS,
        ..Outcome::default()
    };
    if opts.traced {
        obs::reset();
        obs::enable();
    }
    match opts.workload {
        Workload::ServeZipf => serve(opts, &mut out),
        Workload::CkptSuite => ckpt(opts, &mut out),
        Workload::FleetD2 => fleet(opts, &mut out),
    }
    if opts.traced {
        obs::disable();
        let summary = obs::Summary::capture();
        summary_layers(&summary, &mut out.layers);
        if opts.workload == Workload::ServeZipf {
            let swap_ns: u64 = ["snapify.swapin", "snapify.swapout"]
                .iter()
                .map(|k| summary.durations.get(*k).map_or(0, |d| d.total_ns))
                .sum();
            // Share of the swap workers' capacity spent swapping.
            let busy = ratio(swap_ns as f64 / 1e9, SERVE_WORKERS as f64 * out.virtual_s);
            out.layers.insert("serving.swap_busy_frac".into(), busy);
        }
    }
    out
}

// ---------------------------------------------------------------------
// serve-zipf
// ---------------------------------------------------------------------

fn serve_config(seed: u64, requests: usize) -> ServingConfig {
    ServingConfig {
        devices: 8,
        swap_workers: SERVE_WORKERS,
        policy: EvictionPolicy::Popularity,
        traffic: TrafficConfig {
            tenants: 1000,
            zipf_s: 1.1,
            rate_per_sec: 20.0,
            requests,
            process: ArrivalProcess::Poisson,
            seed,
        },
        ..ServingConfig::default()
    }
}

fn serve(opts: &RunOpts, out: &mut Outcome) {
    let cfg = serve_config(opts.seed, if opts.setup_only { 1 } else { SERVE_REQUESTS });
    let traced = opts.traced;
    let t = Instant::now();
    let (report, end_ns, events): (ServingReport, u64, usize) = Kernel::run_root(move || {
        let kernel = simkernel::current().0;
        if traced {
            kernel.enable_trace();
        }
        let report = run_scenario(&cfg);
        (report, simkernel::now().as_nanos(), kernel.trace_len())
    });
    out.span("bench.scenario_wall_s", t);
    out.virtual_s = end_ns as f64 / 1e9;
    out.events = events as u64;
    out.attempted = report.requests;
    out.failed = report.rejected;
    out.fold(report.summary().as_bytes());
    out.fold(&end_ns.to_le_bytes());

    let served = report.cold.count + report.warm.count;
    out.check(served == report.admitted, || {
        format!(
            "serve: {served} requests reached first compute, {} admitted",
            report.admitted
        )
    });
    out.check(report.max_resident <= report.devices, || {
        format!(
            "serve: {} tenants resident on {} devices",
            report.max_resident, report.devices
        )
    });

    let ms = |ns: u64| ns as f64 / 1e6;
    for (name, v) in [
        ("ttfc_ms.p50", ms(report.overall.p50_ns)),
        ("ttfc_ms.p99", ms(report.overall.p99_ns)),
        ("cold_ttfc_ms.p50", ms(report.cold.p50_ns)),
        ("warm_ttfc_ms.p50", ms(report.warm.p50_ns)),
        ("ttfc.count", report.overall.count as f64),
        ("cold_ttfc.count", report.cold.count as f64),
        ("warm_ttfc.count", report.warm.count as f64),
    ] {
        out.virt.insert(name.to_string(), v);
    }

    let l = &mut out.layers;
    l.insert(
        "serving.cold_frac".into(),
        ratio(report.cold.count as f64, served as f64),
    );
    l.insert("serving.swaps".into(), report.swaps as f64);
    l.insert("serving.rejected".into(), report.rejected as f64);
    let (warm, cold) = (
        report.restore_chunks_warm as f64,
        report.restore_chunks_cold as f64,
    );
    l.insert(
        "snapstore.restore_hit_ratio".into(),
        ratio(warm, warm + cold),
    );
}

// ---------------------------------------------------------------------
// ckpt-suite
// ---------------------------------------------------------------------

/// Uniform draw in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Virtual seconds of an app's iteration loop, from its flop count at
/// the simulated device's ~1 TFLOP/s.
fn nominal_runtime_s(spec: &WorkloadSpec) -> f64 {
    spec.iterations as f64 * spec.steps_per_iter as f64 * spec.flops_per_step / 1e12
}

/// Per-app results gathered inside the simulation.
#[derive(Default)]
struct AppRun {
    ckpt_s: Vec<f64>,
    restart_s: Vec<f64>,
    migrate_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    verified: Vec<(&'static str, bool)>,
    spans: BTreeMap<String, f64>,
    digest_words: Vec<u64>,
    end_ns: u64,
    events: u64,
    error: Option<String>,
}

impl AppRun {
    /// Count one API call; keep its error for the report.
    fn call<T>(&mut self, r: Result<T, SnapifyError>, what: &str) -> Result<T, ()> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            self.error = Some(format!("{what}: {e}"));
        })
    }

    fn timed<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        *self.spans.entry(span.to_string()).or_default() += t.elapsed().as_secs_f64();
        r
    }
}

fn ckpt(opts: &RunOpts, out: &mut Outcome) {
    let mut end_ns = 0;
    for (i, spec) in suite().into_iter().enumerate() {
        let seed = splitmix64(opts.seed ^ ((i as u64) << 32));
        let (setup_only, traced) = (opts.setup_only, opts.traced);
        let app = Kernel::run_root(move || {
            let mut app = AppRun::default();
            let kernel = simkernel::current().0;
            if traced {
                kernel.enable_trace();
            }
            let _ = ckpt_app(&spec, seed, setup_only, &mut app);
            app.end_ns = simkernel::now().as_nanos();
            app.events = kernel.trace_len() as u64;
            app
        });
        let name = suite()[i].name;
        if let Some(e) = &app.error {
            out.check(false, || format!("ckpt {name}: {e}"));
        }
        for (step, ok) in &app.verified {
            out.check(*ok, || format!("ckpt {name}: not verified after {step}"));
        }
        if !setup_only {
            out.check(app.verified.len() == 2, || {
                format!("ckpt {name}: {} of 2 verifications ran", app.verified.len())
            });
        }
        for (series, v) in [
            ("checkpoint_s", &app.ckpt_s),
            ("restart_s", &app.restart_s),
            ("migrate_s", &app.migrate_s),
        ] {
            out.samples.entry(series.into()).or_default().extend(v);
        }
        for (k, v) in app.spans {
            *out.spans.entry(k).or_default() += v;
        }
        for w in &app.digest_words {
            out.fold(&w.to_le_bytes());
        }
        out.fold(&app.end_ns.to_le_bytes());
        out.attempted += app.attempted;
        out.failed += app.failed;
        out.events += app.events;
        end_ns += app.end_ns;
    }
    out.virtual_s = end_ns as f64 / 1e9;
}

/// One app of the suite: launch, seeded checkpoints while it runs,
/// kill and restart on device 1, migrate back to device 0, finish and
/// verify after each step.
fn ckpt_app(spec: &WorkloadSpec, seed: u64, setup_only: bool, app: &mut AppRun) -> Result<(), ()> {
    let registry = FunctionRegistry::new();
    register_suite(&registry, std::slice::from_ref(spec));
    let world = app.timed("bench.boot_wall_s", || SnapifyWorld::boot(registry));
    let launched = app.timed("bench.launch_wall_s", || {
        WorkloadRun::launch(world.coi(), spec, 0)
    });
    let run = Arc::new(app.call(launched, "launch")?);
    if setup_only {
        return app.call(run.destroy(), "destroy");
    }
    let nominal = nominal_runtime_s(spec);
    let delay = |k: u64, lo: f64, span: f64| {
        SimDuration::from_secs_f64((lo + span * unit(splitmix64(seed ^ k))) * nominal)
    };

    let handle = run.handle().clone();
    let host_proc = run.host_proc().clone();
    let driver = {
        let r = Arc::clone(&run);
        host_proc.spawn_thread("driver", move || r.run_to_completion())
    };
    // Checkpoints at seeded instants within the first ~60% of the run,
    // so the restarted remainder still has room for the migration.
    let mut last_path = String::new();
    for k in 0..CHECKPOINTS_PER_APP as u64 {
        app.timed("bench.compute_wall_s", || {
            simkernel::sleep(delay(k, 0.05, 0.1))
        });
        let path = format!("/snap/perfbench/{}/{k}", spec.name);
        let state = run.host_state();
        let r = app.timed("bench.checkpoint_wall_s", || {
            checkpoint_application(&world, &handle, &state, &path)
        });
        let (_snap, report) = app.call(r, "checkpoint_application")?;
        app.ckpt_s.push(report.total.as_secs_f64());
        app.digest_words.extend([
            report.total.as_nanos(),
            report.host_snapshot_bytes,
            report.device_snapshot_bytes,
            report.local_store_bytes,
        ]);
        last_path = path;
    }
    let done = app.timed("bench.compute_wall_s", || driver.join());
    let done = app.call(done, "run_to_completion")?;
    app.verified.push(("checkpoints", done.verified));
    app.digest_words.push(done.runtime.as_nanos());

    // Kill everything and restart from the last snapshot on device 1.
    app.call(run.destroy(), "destroy")?;
    host_proc.exit();
    let r = app.timed("bench.restart_wall_s", || {
        restart_application(&world, &last_path, &spec.binary_name(), 1)
    });
    let restarted = app.call(r, "restart_application")?;
    app.restart_s.push(restarted.report.total.as_secs_f64());
    app.digest_words.push(restarted.report.total.as_nanos());
    let resumed = Arc::new(WorkloadRun::resume_after_restart(
        spec,
        &restarted.handle,
        &restarted.host_proc,
        &restarted.host_state,
    ));
    let driver = {
        let r = Arc::clone(&resumed);
        restarted
            .host_proc
            .spawn_thread("driver", move || r.run_to_completion())
    };
    app.timed("bench.compute_wall_s", || {
        simkernel::sleep(delay(99, 0.02, 0.05))
    });

    // Migrate back to device 0: pause, terminating capture, swap in.
    let snap = SnapifyT::new(
        &restarted.handle,
        format!("/snap/perfbench/{}/mig", spec.name),
    );
    let t0 = simkernel::now();
    let migrated = app.timed("bench.migrate_wall_s", || -> Result<(), SnapifyError> {
        snapify_pause(&snap)?;
        snapify_capture(&snap, true)?;
        snapify_wait(&snap)?;
        snapify_swapin(&snap, 0)
    });
    app.call(migrated, "migrate")?;
    let mig = simkernel::now() - t0;
    app.migrate_s.push(mig.as_secs_f64());
    app.digest_words.push(mig.as_nanos());
    let done = app.timed("bench.compute_wall_s", || driver.join());
    let done = app.call(done, "run_to_completion after restart")?;
    app.verified.push((
        "restart and migration",
        done.verified && restarted.handle.device() == 0,
    ));
    app.digest_words.push(done.runtime.as_nanos());
    app.call(resumed.destroy(), "destroy")
}

// ---------------------------------------------------------------------
// fleet-d2
// ---------------------------------------------------------------------

/// The fleet of `BENCH_cluster.json` (10 nodes × 200 tenants); the seed
/// varies each tenant's private bytes in 128 KiB steps, and seeds that
/// are multiples of 8 run the committed bench configuration exactly
/// (command-line seed 3 derives such a sub-seed).
pub fn fleet_config(seed: u64, domains: u32, max_migrations: usize) -> FleetConfig {
    FleetConfig {
        nodes: 10,
        domains,
        tenants: 200,
        base_bytes: 48 << 20,
        unique_bytes: (4 << 20) + (seed % 8) * (128 << 10),
        max_migrations,
        ..FleetConfig::default()
    }
}

fn fleet(opts: &RunOpts, out: &mut Outcome) {
    let migrations = if opts.setup_only { 0 } else { FLEET_MIGRATIONS };
    let cfg = fleet_config(opts.seed, opts.domains, migrations);
    let t = Instant::now();
    let report: FleetReport = FleetScheduler::new(cfg).run();
    out.span("bench.fleet_wall_s", t);
    out.virtual_s = report.virtual_ns as f64 / 1e9;
    // The fleet always records its merged kernel trace.
    out.events = report.fingerprint.0 as u64;
    out.attempted = report.migrations.len() as u64;
    out.failed = report.failed_back() as u64;
    out.digest = report.digest();

    out.check(report.committed() == migrations, || {
        format!(
            "fleet: {} of {migrations} migrations committed: {:?}",
            report.committed(),
            report.migrations
        )
    });
    out.check(report.pool_live_chunks == 0, || {
        format!("fleet: {} pool chunks leaked", report.pool_live_chunks)
    });
    out.check(report.pool_live_manifests == 0, || {
        format!(
            "fleet: {} pool manifests leaked",
            report.pool_live_manifests
        )
    });

    out.virt.insert("fleet_virtual_s".into(), out.virtual_s);
    out.virt.insert(
        "remote_mb".into(),
        report.pool.bytes_fetched_remote as f64 / 1e6,
    );

    let l = &mut out.layers;
    l.insert(
        "pool.bytes_fetched_remote".into(),
        report.pool.bytes_fetched_remote as f64,
    );
    l.insert("pool.saved_frac".into(), report.pool.saved_fraction());
    l.insert("fleet.committed".into(), report.committed() as f64);
    l.insert("fleet.rolled_back".into(), report.failed_back() as f64);
    l.insert(
        "fleet.cycled".into(),
        report.agents.iter().map(|a| a.cycled).sum::<u64>() as f64,
    );
}

// ---------------------------------------------------------------------
// Per-layer counters from the obs summary
// ---------------------------------------------------------------------

/// Span name → per-layer metric stem, each reported as a virtual total
/// (`<stem>_s`) and a count (`<stem>_n`).
pub const SPAN_LAYERS: [(&str, &str); 15] = [
    ("coi.pause", "coi.pause"),
    ("coi.pause.drain", "coi.drain"),
    ("coi.pause.save_store", "coi.save_store"),
    ("coi.capture", "coi.capture"),
    ("coi.restore.store_copy", "coi.store_copy"),
    ("coi.restore.reregistration", "coi.reregistration"),
    ("snapify.pause", "core.pause"),
    ("snapify.capture", "core.capture"),
    ("snapify.transfer", "core.transfer"),
    ("snapify.restore", "core.restore"),
    ("snapify.swapout", "core.swapout"),
    ("snapify.swapin", "core.swapin"),
    ("snapify.migrate", "core.migrate"),
    ("snapify.checkpoint", "core.checkpoint"),
    ("snapify.restart", "core.restart"),
];

/// Counter name → per-layer metric.
pub const COUNTER_LAYERS: [(&str, &str); 16] = [
    ("cluster.msgs_sent", "domain.cross_msgs"),
    ("cluster.bytes_sent", "domain.cross_bytes"),
    ("pcie.dma_bytes", "platform.pcie_dma_bytes"),
    ("scif.msgs_sent", "scif.msgs"),
    ("scif.rdma_bytes", "scif.rdma_bytes"),
    ("blcr.checkpoints", "blcr.checkpoints"),
    ("blcr.restarts", "blcr.restarts"),
    ("blcr.snapshot_bytes", "blcr.snapshot_bytes"),
    ("blcr.pages_written", "blcr.pages_written"),
    ("io.Snapify-IO.bytes_written", "snapify_io.bytes_written"),
    ("io.Snapify-IO.bytes_read", "snapify_io.bytes_read"),
    ("io.Snapify-IO.chunks_written", "snapify_io.chunks_written"),
    ("io.Snapify-IO.chunks_read", "snapify_io.chunks_read"),
    ("snapify.restore.bytes_fetched", "snapstore.bytes_fetched"),
    (
        "snapify.capture.dirty_bytes",
        "snapstore.capture_dirty_bytes",
    ),
    ("store.gc.chunks_freed", "snapstore.gc_chunks_freed"),
];

/// Derive the per-layer metrics an obs summary holds.
pub fn summary_layers(s: &obs::Summary, l: &mut BTreeMap<String, f64>) {
    let counter = |k: &str| s.counters.get(k).copied().unwrap_or(0) as f64;
    let labeled = |name: &str| -> f64 {
        s.labeled
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match m.value {
                obs::MetricValue::Counter(c) => c,
                _ => 0,
            })
            .sum::<u64>() as f64
    };
    for (span, stem) in SPAN_LAYERS {
        let d = s.durations.get(span).copied().unwrap_or_default();
        l.insert(format!("{stem}_s"), d.total_ns as f64 / 1e9);
        l.insert(format!("{stem}_n"), d.count as f64);
    }
    for (counter_name, metric) in COUNTER_LAYERS {
        l.insert(metric.to_string(), counter(counter_name));
    }
    let blcr_restart = s.durations.get("blcr.restart").copied().unwrap_or_default();
    l.insert("blcr.restart_s".into(), blcr_restart.total_ns as f64 / 1e9);
    l.insert("snapify_io.retries".into(), labeled("io.retries"));
    let avoided = counter("snapify.restore.bytes_avoided");
    l.insert("snapstore.bytes_avoided".into(), avoided);
    let (deduped, shipped) = (
        counter("store.bytes_deduped"),
        counter("store.bytes_shipped"),
    );
    l.insert(
        "snapstore.dedup_ratio".into(),
        ratio(deduped, deduped + shipped),
    );
    let (dirty, clean) = (
        counter("snapify.capture.dirty_bytes"),
        counter("snapify.capture.clean_bytes"),
    );
    l.insert(
        "snapstore.capture_clean_frac".into(),
        ratio(clean, clean + dirty),
    );
    l.insert(
        "serving.swap_retries".into(),
        counter("serving.swap_retries"),
    );
    let sketch = s.sketch_where("swap.swapin_ns", &[]);
    let (p50, p99) = sketch.map_or((0, 0), |k| (k.p50(), k.p99()));
    l.insert("core.swapin_ms.p50".into(), p50 as f64 / 1e6);
    l.insert("core.swapin_ms.p99".into(), p99 as f64 / 1e6);
    for (span, metric) in [
        ("fleet.migrate_out", "fleet.migrate_out_s"),
        ("fleet.restore_in", "fleet.restore_in_s"),
    ] {
        let d = s.durations.get(span).copied().unwrap_or_default();
        l.insert(metric.into(), d.total_ns as f64 / 1e9);
    }
}

//! End-to-end and per-layer benchmark of the QGTC reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <epoch-arxiv|serve-hot|serve-cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1` is a
//! separate run that records spans around each layer's public calls and
//! prints the per-layer metrics. Every output is checked against the
//! portable-backend oracle before and after the timed phases; the last line
//! of standard output is one JSON object with the result.

mod measure;
mod openloop;
mod replay;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use qgtc_core::gnn::models::QuantizedWeightSet;
use qgtc_core::tcsim::DeviceModel;
use qgtc_core::{EpochReport, EpochRunner, QgtcConfig, QgtcError, QgtcSession};

use measure::{median, ms_between, summarize, Summary};
use openloop::{run_phase, PhaseResult, Traffic};
use replay::{replay_pass, Pass};
use trace::{span_cost_ms, Tracer};
use workload::{
    find, fingerprint, forbidden_env_set, full_sweep_matches, median_of, plan_nodes, setup, Built,
    Main, Oracle, SetupField, SetupTimes, Workload, WORKLOADS,
};

/// The seed a run uses when none is given; seed 2 is held out for
/// confirming a claimed gain.
const DEFAULT_SEED: u64 = 1;

/// The serving latency limit the backlog-growth test reads against.
const LATENCY_LIMIT_MS: f64 = 25.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: qgtc-e2e-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(find(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints: metrics in order, with their units and a note on how
/// each was measured, plus the attempted/failed tally.
#[derive(Default)]
struct Output {
    metrics: Vec<(&'static str, f64, &'static str, String)>,
    attempted: u64,
    failed: u64,
}

impl Output {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push((name, value, unit, note));
    }

    fn tail(&mut self, p50: &'static str, tail: &'static str, s: &Summary, note: &str) {
        self.metric(p50, s.p50, "ms", format!("p50 of n={}{note}", s.count));
        self.metric(
            tail,
            s.tail,
            "ms",
            format!("p{} of n={}{note}", s.tail_pct, s.count),
        );
    }

    /// The median as a metric; the tail goes in its note only.
    fn median_only(&mut self, p50: &'static str, s: &Summary, note: &str) {
        self.metric(
            p50,
            s.p50,
            "ms",
            format!(
                "p50 of n={}; p{} {:.3} ms{note}",
                s.count, s.tail_pct, s.tail
            ),
        );
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("correctness check failed: {what}");
        }
    }

    fn absorb(&mut self, phase: &PhaseResult) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    fn print(&self) -> bool {
        let correct = self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite());
        for (name, value, unit, note) in &self.metrics {
            println!("metric {name} = {value} {unit} ({note})");
        }
        println!(
            "failed_ratio = {} ({} of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        correct
    }
}

/// Host-wide CPU ticks `(steal, total)` from `/proc/stat`: time the
/// hypervisor gave to other guests explains outliers no code change made.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything the measured phases share.
struct Bench<'a> {
    w: &'a Workload,
    seed: u64,
    seconds: f64,
    config: &'a QgtcConfig,
    built: &'a Built,
    nodes: &'a [usize],
    oracle: &'a Oracle,
}

impl Bench<'_> {
    fn epoch(&self) -> Result<EpochReport, QgtcError> {
        EpochRunner::new(&self.built.dataset, self.config)
            .with_plan(&self.built.plan)
            .streamed(true)
            .try_run()
    }

    /// An epoch is correct when it ran without a recovery and its counters
    /// equal the serial portable oracle's.
    fn epoch_ok(&self, report: &Result<EpochReport, QgtcError>) -> bool {
        report.as_ref().is_ok_and(|r| {
            r.cost == self.oracle.epoch_cost
                && r.fault_stats.retried == 0
                && r.fault_stats.degraded == 0
        })
    }

    fn traffic(&self, stream: u64, rate_per_s: f64, seconds: f64) -> Traffic {
        Traffic {
            seed: self.seed,
            stream,
            rate_per_s,
            count: ((rate_per_s * seconds).round() as usize).max(1),
            nodes_per_request: self.w.nodes_per_request,
        }
    }

    fn phase(
        &self,
        session: &mut QgtcSession<'_>,
        traffic: Traffic,
        tracer: &mut Tracer,
        out: &mut Output,
    ) -> PhaseResult {
        let phase = run_phase(session, self.oracle, self.nodes, traffic, tracer);
        out.absorb(&phase);
        phase
    }
}

/// Light and heavy phases alternate in this many rounds, so drift in the
/// host's speed during a run lands on both alike.
const ROUNDS: usize = 4;

/// `epoch-arxiv`: streamed epochs back to back (heavy, one closed-loop
/// caller) and one due every `light_period_ms` (light), timed from the due
/// time.
fn run_epochs(b: &Bench, light_period_ms: f64, out: &mut Output) {
    for _ in 0..2 {
        let r = b.epoch();
        out.check("warm-up epoch", b.epoch_ok(&r));
    }
    let (mut heavy, mut light) = (Vec::new(), Vec::new());
    let period = Duration::from_secs_f64(light_period_ms / 1e3);
    let round_s = b.seconds / ROUNDS as f64;
    for _ in 0..ROUNDS {
        let deadline = Instant::now() + Duration::from_secs_f64(0.65 * round_s);
        while Instant::now() < deadline {
            let t = Instant::now();
            let r = b.epoch();
            heavy.push(t.elapsed().as_secs_f64() * 1e3);
            out.check("heavy epoch", b.epoch_ok(&r));
        }
        let start = Instant::now();
        let count = ((0.35 * round_s * 1e3 / light_period_ms) as u32).max(1);
        for i in 0..count {
            let due = start + period * i;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let r = b.epoch();
            light.push(measure::latency_from_due_ms(due, Instant::now()));
            out.check("light epoch", b.epoch_ok(&r));
        }
    }
    out.median_only("light_p50_ms", &summarize(&light, 90.0), "");
    out.tail(
        "heavy_p50_ms",
        "heavy_tail_ms",
        &summarize(&heavy, 90.0),
        "",
    );
}

/// `serve-*`: open loop at the light and the heavy rate.
fn run_serving(b: &Bench, session: &mut QgtcSession<'_>, heavy_rps: f64, out: &mut Output) {
    let mut off = Tracer::new(false);
    let warm = b.traffic(0, b.w.light_rps, 1.0);
    b.phase(session, warm, &mut off, out);
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    let round_s = b.seconds / ROUNDS as f64;
    for round in 0..ROUNDS as u64 {
        let phase = b.phase(
            session,
            b.traffic(1 + 2 * round, b.w.light_rps, 0.6 * round_s),
            &mut off,
            out,
        );
        light.push(phase.latency_ms);
        let phase = b.phase(
            session,
            b.traffic(2 + 2 * round, heavy_rps, 0.4 * round_s),
            &mut off,
            out,
        );
        heavy.push(phase.latency_ms);
    }
    let growth = |rounds: &[Vec<f64>]| {
        let g: Vec<f64> = rounds.iter().map(|r| measure::backlog_growth(r)).collect();
        let grows = rounds
            .iter()
            .any(|r| measure::backlog_grows(r, LATENCY_LIMIT_MS));
        format!("; backlog growth per round {g:.2?}, growing: {grows}")
    };
    // The light tail is printed, not gated: at 100 rps the session is about
    // half busy, so its p95/p99 sit on the queueing knee and moved 6.8-12 ms
    // between runs of the same code.
    let note = growth(&light);
    out.median_only("light_p50_ms", &summarize(&light.concat(), 99.0), &note);
    let note = growth(&heavy);
    out.tail(
        "heavy_p50_ms",
        "heavy_tail_ms",
        &summarize(&heavy.concat(), 99.0),
        &note,
    );
}

/// `--trace 1`: the replay, streamed epochs and a serving phase, each call
/// into a layer under a span; prints the per-layer metrics.
fn run_traced(
    b: &Bench,
    session: &mut QgtcSession<'_>,
    setup_times: &[SetupTimes],
    tracer: &mut Tracer,
    out: &mut Output,
) {
    let traced_start = Instant::now();
    let setup: [(&'static str, SetupField); 4] = [
        ("graph.materialize_ms", |t| t.materialize_ms),
        ("partition.plan_ms", |t| t.plan_ms),
        ("gnn.weights_ms", |t| t.weights_ms),
        ("serve.session_build_ms", |t| t.session_build_ms),
    ];
    for (name, field) in setup {
        let note = format!("median of {} set-ups", setup_times.len());
        out.metric(name, median_of(setup_times, field), "ms", note);
    }

    // Replay: the epoch split into its layer calls.
    let config = b.config;
    let weights: QuantizedWeightSet = b.built.model.prepare_weights(config.bits);
    let mut passes: Vec<Pass> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(0.3 * b.seconds);
    while passes.len() < 3 || Instant::now() < deadline {
        let pass = replay_pass(
            &b.built.dataset,
            config,
            &b.built.plan,
            &b.built.model,
            &weights,
            tracer,
        );
        out.check(
            "replay counters equal the epoch's",
            pass.cost == b.oracle.epoch_cost,
        );
        passes.push(pass);
    }
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let note = format!("per epoch, median of {} replay passes", passes.len());
    let prepare_ms = med(Pass::prepare_ms);
    let forward_ms = med(|p| p.forward_ms);
    let aggregate_ms = med(|p| p.aggregate_ms);
    let batches = passes[0].batches.max(1) as f64;
    out.metric(
        "graph.block_diagonal_ms",
        med(|p| p.block_diagonal_ms),
        "ms",
        note.clone(),
    );
    out.metric("graph.gather_ms", med(|p| p.gather_ms), "ms", note.clone());
    out.metric("kernels.pack_ms", med(|p| p.pack_ms), "ms", note.clone());
    out.metric(
        "kernels.payload_bytes",
        passes[0].payload_bytes as f64,
        "bytes",
        "per epoch".into(),
    );
    out.metric("gnn.forward_ms", forward_ms, "ms", note.clone());
    out.metric(
        "kernels.aggregate_ms",
        aggregate_ms,
        "ms",
        format!("{note}; layer-1 aggregation over each payload"),
    );
    out.metric(
        "gnn.rest_ms",
        med(|p| p.forward_ms - p.aggregate_ms),
        "ms",
        "forward - aggregate".into(),
    );
    let cost = passes[0].cost;
    out.metric(
        "kernels.word_skip_ratio",
        cost.fused_word_skip_ratio(),
        "ratio",
        "per epoch".into(),
    );
    let counts = [
        ("kernels.adj_skip_dispatches", cost.adj_skip_dispatches),
        (
            "kernels.adj_condensed_dispatches",
            cost.adj_condensed_dispatches,
        ),
    ];
    for (name, count) in counts {
        out.metric(name, count as f64, "count", "per epoch".into());
    }
    let modeled = DeviceModel::new(config.gpu.clone())
        .estimate(&cost)
        .total_ms();
    out.metric(
        "tcsim.modeled_epoch_ms",
        modeled,
        "modeled_ms",
        "device model over the epoch's counters".into(),
    );
    out.metric(
        "tcsim.tc_b1_tiles",
        cost.tc_b1_tiles as f64,
        "count",
        "per epoch".into(),
    );
    out.metric(
        "tcsim.pcie_h2d_bytes",
        cost.pcie_h2d_bytes as f64,
        "bytes",
        "per epoch".into(),
    );

    // Streamed epochs over the same plan.
    let mut epochs = Vec::new();
    let mut walls = Vec::new();
    let (mut retried, mut degraded) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(0.3 * b.seconds);
    while epochs.len() < 3 || Instant::now() < deadline {
        let t = Instant::now();
        let r = tracer.span("pipeline.epoch", || b.epoch());
        epochs.push(t.elapsed().as_secs_f64() * 1e3);
        out.check("traced epoch", b.epoch_ok(&r));
        if let Ok(r) = &r {
            walls.push(r.host_wall_ms);
            retried += r.fault_stats.retried;
            degraded += r.fault_stats.degraded;
        }
    }
    let epoch_ms = median(&epochs);
    let enote = format!("median of {} streamed epochs", epochs.len());
    out.metric("pipeline.epoch_ms", epoch_ms, "ms", enote.clone());
    out.metric(
        "pipeline.report_wall_ms",
        if walls.is_empty() {
            f64::NAN
        } else {
            median(&walls)
        },
        "ms",
        enote,
    );
    out.metric(
        "pipeline.overlap_ratio",
        measure::overlap_ratio(prepare_ms, forward_ms, epoch_ms),
        "ratio",
        format!(
            "(replay prepare + forward) / epoch; replay self time {:.3} ms per pass",
            med(|p| p.glue_ms)
        ),
    );

    // Serving over the same plan at the workload's heavy rate (its light
    // rate for the epoch workload).
    let rate = match b.w.main {
        Main::Serving { heavy_rps } => heavy_rps,
        Main::Epochs { .. } => b.w.light_rps,
    };
    let mut off = Tracer::new(false);
    b.phase(session, b.traffic(0, rate, 1.0), &mut off, out);
    let phase = b.phase(session, b.traffic(2, rate, 0.4 * b.seconds), tracer, out);
    let snote = format!("{} requests at {rate} rps", phase.latency_ms.len());
    out.metric(
        "serve.submit_us",
        median(&phase.submit_us),
        "us",
        format!("p50, {snote}"),
    );
    let wait = summarize(&phase.queue_wait_ms, 99.0);
    out.tail(
        "serve.queue_wait_p50_ms",
        "serve.queue_wait_tail_ms",
        &wait,
        "",
    );
    let drain_ms: Vec<f64> = phase.drains.iter().map(|d| d.ms).collect();
    out.tail(
        "serve.drain_p50_ms",
        "serve.drain_tail_ms",
        &summarize(&drain_ms, 99.0),
        "",
    );
    let s = phase.stats;
    let drains = phase.drains.len().max(1) as f64;
    out.metric(
        "serve.requests_per_drain",
        phase.drains.iter().map(|d| d.requests).sum::<usize>() as f64 / drains,
        "count",
        format!("mean over {} drains", phase.drains.len()),
    );
    out.metric(
        "serve.coalesce_ratio",
        s.batch_touches as f64 / s.batches_executed.max(1) as f64,
        "ratio",
        "batch touches / batches executed".into(),
    );
    out.metric(
        "serve.hit_ratio",
        s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64,
        "ratio",
        snote.clone(),
    );
    out.metric(
        "serve.evictions",
        s.cache_evictions as f64,
        "count",
        snote.clone(),
    );
    out.metric(
        "kernels.pool_fresh_allocs",
        s.pool.fresh_allocations as f64,
        "count",
        format!("{snote}, after a 1 s warm-up"),
    );
    let unattributed: f64 = phase
        .drains
        .iter()
        .map(|d| {
            measure::unattributed_ms(
                d.ms,
                d.misses as f64,
                prepare_ms / batches,
                d.executed as f64,
                forward_ms / batches,
            )
        })
        .sum::<f64>()
        / drains;
    out.metric(
        "serve.unattributed_ms",
        unattributed,
        "ms",
        "mean per drain: drain - (misses x prepare + executed x forward)".into(),
    );
    out.metric(
        "fault.retried",
        retried as f64,
        "count",
        "over the traced epochs".into(),
    );
    out.metric(
        "fault.degraded_batches",
        (degraded + s.degraded_batches) as f64,
        "count",
        "traced epochs + serving".into(),
    );
    let late = summarize(&phase.lateness_ms, 99.0);
    out.metric(
        "gen.late_p99_ms",
        late.tail,
        "ms",
        format!("p{} of n={}", late.tail_pct, late.count),
    );
    let traced_ms = ms_between(traced_start, Instant::now());
    out.metric(
        "trace.overhead_ratio",
        tracer.spans().len() as f64 * span_cost_ms() / traced_ms,
        "ratio",
        format!(
            "{} spans x measured span cost / traced time",
            tracer.spans().len()
        ),
    );
}

fn run(args: &Args) -> Result<Output, QgtcError> {
    let w = args.workload;
    let config = w.config();
    let mut tracer = Tracer::new(args.trace);
    let (built, setup_times) = setup(w, args.seed, &config, &mut tracer)?;
    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("fingerprint {}", fingerprint(w, &built));
    let nodes = plan_nodes(&built.plan);
    let oracle = Oracle::build(w, &built.dataset, &built.plan, &nodes)?;
    let mut session = QgtcSession::new(&built.dataset, &config)?;
    let b = Bench {
        w,
        seed: args.seed,
        seconds: args.seconds,
        config: &config,
        built: &built,
        nodes: &nodes,
        oracle: &oracle,
    };
    let ticks_before = cpu_ticks();
    let mut out = Output::default();
    out.check(
        "full sweep before the timed phases",
        full_sweep_matches(&mut session, &oracle, &nodes),
    );
    if args.trace {
        run_traced(&b, &mut session, &setup_times, &mut tracer, &mut out);
    } else {
        match w.main {
            Main::Epochs { light_period_ms } => run_epochs(&b, light_period_ms, &mut out),
            Main::Serving { heavy_rps } => run_serving(&b, &mut session, heavy_rps, &mut out),
        }
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM".into());
        // Set up again after the measured phases, so that one slow moment of
        // the host at start-up does not decide `setup_s` alone.
        let (_, late) = setup(w, args.seed, &config, &mut tracer)?;
        let all: Vec<SetupTimes> = setup_times.iter().chain(&late).copied().collect();
        let totals: Vec<f64> = all.iter().map(|t| t.total_ms).collect();
        out.metric(
            "setup_s",
            median(&totals) / 1e3,
            "s",
            format!(
                "median of {} set-ups at the start and end of the run \
                 (materialize, plan, weights, session build), {:.1}-{:.1} ms",
                all.len(),
                totals.iter().copied().fold(f64::INFINITY, f64::min),
                totals.iter().copied().fold(0.0, f64::max)
            ),
        );
    }
    out.check(
        "full sweep after the timed phases",
        full_sweep_matches(&mut session, &oracle, &nodes),
    );
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let stolen = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("host steal {stolen:.2}% of CPU time during the measured phases");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let forbidden = forbidden_env_set();
    if !forbidden.is_empty() {
        eprintln!(
            "refusing to run: {} set; each changes the program under measurement",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(out) => {
            if out.print() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("benchmark failed: {err}");
            ExitCode::FAILURE
        }
    }
}

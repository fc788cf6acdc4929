//! The workloads, their set-up, the host fingerprint and the portable
//! oracle every output is checked against.

use std::time::Instant;

use qgtc_core::gnn::{BatchedGinModel, ClusterGcnModel, GnnModel};
use qgtc_core::graph::{DatasetProfile, LoadedDataset};
use qgtc_core::kernels::backend::{resolve_auto, staged_body_name};
use qgtc_core::kernels::tiling::{resolve_tiling, tune_file_path};
use qgtc_core::partition::PartitionBatcher;
use qgtc_core::{
    try_build_plan, BackendChoice, EpochRunner, ModelKind, QgtcConfig, QgtcError, QgtcSession,
};

use crate::measure::median;
use crate::trace::Tracer;

/// What a workload measures end to end.
#[derive(Debug, Clone, Copy)]
pub enum Main {
    /// Streamed epochs over a plan built at set-up: back to back (heavy, one
    /// closed-loop caller) and paced one per `light_period_ms` (light).
    Epochs { light_period_ms: f64 },
    /// Open-loop requests to a `QgtcSession` at the light and a heavy rate.
    Serving { heavy_rps: f64 },
}

/// One named workload: a dataset profile, a model and its traffic.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub profile: DatasetProfile,
    pub scale: f64,
    pub model: ModelKind,
    pub bits: u32,
    pub partitions: usize,
    pub batch_size: usize,
    /// Nodes per request, drawn uniformly from the plan's nodes.
    pub nodes_per_request: usize,
    /// The light open-loop rate (the serving probe rate of a traced
    /// `Epochs` run).
    pub light_rps: f64,
    pub main: Main,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "epoch-arxiv",
        profile: DatasetProfile::OGBN_ARXIV,
        scale: 0.05,
        model: ModelKind::ClusterGcn,
        bits: 2,
        partitions: 32,
        batch_size: 2,
        nodes_per_request: 4,
        light_rps: 100.0,
        // About three epoch times apart, so a light epoch seldom waits for
        // the one before it even when the host is slow.
        main: Main::Epochs {
            light_period_ms: 200.0,
        },
    },
    Workload {
        name: "serve-hot",
        profile: DatasetProfile::PROTEINS,
        scale: 0.05,
        model: ModelKind::BatchedGin,
        bits: 4,
        partitions: 64,
        batch_size: 2,
        nodes_per_request: 4,
        light_rps: 100.0,
        main: Main::Serving { heavy_rps: 1000.0 },
    },
    Workload {
        name: "serve-cold",
        profile: DatasetProfile::BLOGCATALOG,
        scale: 0.05,
        model: ModelKind::ClusterGcn,
        bits: 2,
        partitions: 256,
        batch_size: 2,
        nodes_per_request: 16,
        light_rps: 100.0,
        main: Main::Serving { heavy_rps: 400.0 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The program under measurement: default `KernelConfig`, default
    /// backend choice, the workload's model and plan shape.
    pub fn config(&self) -> QgtcConfig {
        QgtcConfig::qgtc(self.model, self.bits).with_partitions(self.partitions, self.batch_size)
    }

    /// The same program pinned to the portable scalar backend: the oracle.
    pub fn oracle_config(&self) -> QgtcConfig {
        self.config().with_backend(BackendChoice::Portable)
    }

    pub fn model(&self, dataset: &LoadedDataset, config: &QgtcConfig) -> GnnModel {
        let feature_dim = dataset.features.cols();
        let classes = dataset.profile.num_classes.max(2);
        match self.model {
            ModelKind::ClusterGcn => {
                GnnModel::ClusterGcn(ClusterGcnModel::new(feature_dim, classes, config.seed))
            }
            ModelKind::BatchedGin => {
                GnnModel::BatchedGin(BatchedGinModel::new(feature_dim, classes, config.seed))
            }
        }
    }
}

/// Settings that are read once into a process global and silently change
/// the program under measurement.
pub const FORBIDDEN_ENV: [&str; 5] = [
    "QGTC_BACKEND",
    "QGTC_TILING",
    "QGTC_ADJ_PATH",
    "QGTC_TUNE_FILE",
    "QGTC_FAULTS",
];

/// The forbidden settings present in the environment.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|key| std::env::var_os(key).is_some())
        .collect()
}

/// Everything set-up builds that the measured phases use.
pub struct Built {
    pub dataset: LoadedDataset,
    pub plan: PartitionBatcher,
    pub model: GnnModel,
}

/// Set-up times of one repetition, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub materialize_ms: f64,
    pub plan_ms: f64,
    pub weights_ms: f64,
    pub session_build_ms: f64,
    pub total_ms: f64,
}

/// Set-up runs at least `SETUP_MIN_REPS` times and until `SETUP_MIN_S`
/// seconds have passed, at most `SETUP_MAX_REPS` times; `setup_s` is the
/// median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_S: f64 = 1.5;

/// Run set-up (materialize, plan, weights, session build) repeatedly,
/// keeping the last repetition's products. Spans go to `tracer`.
pub fn setup(
    w: &Workload,
    seed: u64,
    config: &QgtcConfig,
    tracer: &mut Tracer,
) -> Result<(Built, Vec<SetupTimes>), QgtcError> {
    let mut times = Vec::with_capacity(SETUP_MAX_REPS);
    let mut kept = None;
    let begun = Instant::now();
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && begun.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        let all = tracer.begin("setup");
        let start = Instant::now();
        let dataset = tracer.span("graph.materialize", || w.profile.materialize(w.scale, seed));
        let materialized = Instant::now();
        let (plan, _) = tracer.span("partition.plan", || try_build_plan(&dataset, config))?;
        let planned = Instant::now();
        let model = tracer.span("gnn.weights", || {
            let model = w.model(&dataset, config);
            std::hint::black_box(model.prepare_weights(w.bits));
            model
        });
        let weighted = Instant::now();
        tracer.span("serve.session_build", || {
            QgtcSession::new(&dataset, config).map(std::hint::black_box)
        })?;
        let done = Instant::now();
        tracer.end(all);
        times.push(SetupTimes {
            materialize_ms: (materialized - start).as_secs_f64() * 1e3,
            plan_ms: (planned - materialized).as_secs_f64() * 1e3,
            weights_ms: (weighted - planned).as_secs_f64() * 1e3,
            session_build_ms: (done - weighted).as_secs_f64() * 1e3,
            total_ms: (done - start).as_secs_f64() * 1e3,
        });
        kept = Some(Built {
            dataset,
            plan,
            model,
        });
    }
    Ok((kept.expect("set-up ran at least once"), times))
}

/// One component of [`SetupTimes`].
pub type SetupField = fn(&SetupTimes) -> f64;

/// Median of one set-up component across repetitions.
pub fn median_of(times: &[SetupTimes], field: SetupField) -> f64 {
    median(&times.iter().map(field).collect::<Vec<_>>())
}

/// Every node the plan covers, ascending: the full-sweep request.
pub fn plan_nodes(plan: &PartitionBatcher) -> Vec<usize> {
    let mut nodes: Vec<usize> = plan
        .batches()
        .flat_map(|b| b.partitions.into_iter().flatten())
        .collect();
    nodes.sort_unstable();
    nodes
}

/// The portable-backend answers every output is checked against: logits of
/// every covered node from a full sweep, and the serial epoch's counters.
pub struct Oracle {
    pub classes: usize,
    /// Row of each node in `logits` (`usize::MAX` = not covered).
    row_of: Vec<usize>,
    logits: Vec<u32>,
    pub epoch_cost: qgtc_core::tcsim::cost::CostSnapshot,
}

impl Oracle {
    pub fn build(
        w: &Workload,
        dataset: &LoadedDataset,
        plan: &PartitionBatcher,
        nodes: &[usize],
    ) -> Result<Self, QgtcError> {
        let config = w.oracle_config();
        let epoch = EpochRunner::new(dataset, &config)
            .with_plan(plan)
            .try_run()?;
        let mut session = QgtcSession::new(dataset, &config)?;
        let response = session.infer(nodes)?;
        assert!(response.degraded.is_empty(), "the oracle degraded");
        let classes = response.logits.cols();
        let mut row_of = vec![usize::MAX; dataset.graph.num_nodes()];
        for (row, &node) in nodes.iter().enumerate() {
            row_of[node] = row;
        }
        let logits = response.logits.data().iter().map(|v| v.to_bits()).collect();
        Ok(Self {
            classes,
            row_of,
            logits,
            epoch_cost: epoch.cost,
        })
    }

    /// Whether `logits` (one row per node of `nodes`) match the oracle bitwise.
    pub fn matches(&self, nodes: &[usize], logits: &[f32]) -> bool {
        if logits.len() != nodes.len() * self.classes {
            return false;
        }
        nodes.iter().enumerate().all(|(i, &node)| {
            let Some(&row) = self.row_of.get(node) else {
                return false;
            };
            if row == usize::MAX {
                return false;
            }
            let want = &self.logits[row * self.classes..(row + 1) * self.classes];
            let got = &logits[i * self.classes..(i + 1) * self.classes];
            want.iter().zip(got).all(|(a, b)| *a == b.to_bits())
        })
    }
}

/// Full-sweep gate: one request covering every node, answered by `session`,
/// must equal the oracle bitwise with no degraded row.
pub fn full_sweep_matches(session: &mut QgtcSession<'_>, oracle: &Oracle, nodes: &[usize]) -> bool {
    match session.infer(nodes) {
        Ok(response) => {
            let ok = response.degraded.is_empty()
                && oracle.matches(&response.node_ids, response.logits.data());
            session.recycle_response(response);
            ok
        }
        Err(_) => false,
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The host fingerprint printed with every output, as a JSON object.
pub fn fingerprint(w: &Workload, built: &Built) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let backend = resolve_auto().name();
    let body = staged_body_name(BackendChoice::Auto);
    // The aggregation shape of the plan's first batch: rows × rows × features.
    let rows = built.plan.batch(0).map_or(0, |b| b.num_nodes());
    let features = built.dataset.features.cols();
    let scheme = resolve_tiling(w.config().kernel.tiling, body, rows, rows, features);
    let tune = std::fs::read(tune_file_path())
        .map(|bytes| format!("{:016x}", fnv1a(&bytes)))
        .unwrap_or_else(|_| "missing".into());
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"rayon_num_threads\": \"{rayon}\", \
         \"backend\": \"{backend}\", \"popcount_body\": \"{body}\", \
         \"aggregation_shape\": \"{rows}x{rows}x{features}\", \"tiling\": \"{scheme}\", \
         \"tune_gemm_fnv1a\": \"{tune}\"}}",
        cpu.replace('"', "'")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}

//! The traced replay: every batch of the plan goes through the same public
//! calls an epoch makes, one span per call, so the epoch splits into layers.

use qgtc_core::gnn::models::QuantizedWeightSet;
use qgtc_core::gnn::{GnnModel, QuantizationSetting};
use qgtc_core::graph::LoadedDataset;
use qgtc_core::kernels::bmm::{qgtc_aggregate_prepared, resolve_adjacency_path, AdjacencyPath};
use qgtc_core::kernels::packing::PreparedBatch;
use qgtc_core::partition::PartitionBatcher;
use qgtc_core::tcsim::cost::{CostSnapshot, CostTracker};
use qgtc_core::QgtcConfig;

use crate::trace::Tracer;

/// The layer spans of one replay pass, summed over its batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    pub block_diagonal_ms: f64,
    pub gather_ms: f64,
    pub pack_ms: f64,
    pub forward_ms: f64,
    pub aggregate_ms: f64,
    /// Self time of the pass: everything outside the layer calls (loop
    /// bookkeeping and dropping each batch's buffers).
    pub glue_ms: f64,
    /// Batches that ran a forward pass (empty batches are skipped, as in an
    /// epoch).
    pub batches: usize,
    pub payload_bytes: u64,
    /// Counters of the forward passes and transfers: must equal the epoch's.
    pub cost: CostSnapshot,
}

impl Pass {
    pub fn prepare_ms(&self) -> f64 {
        self.block_diagonal_ms + self.gather_ms + self.pack_ms
    }
}

/// Replay every batch of `plan` once.
pub fn replay_pass(
    dataset: &LoadedDataset,
    config: &QgtcConfig,
    plan: &PartitionBatcher,
    model: &GnnModel,
    weights: &QuantizedWeightSet,
    tracer: &mut Tracer,
) -> Pass {
    let tracker = CostTracker::new();
    // The layer-1 aggregation is re-run on its own tracker, so the pass's
    // counters stay exactly the epoch's.
    let scratch = CostTracker::new();
    let setting = QuantizationSetting::from_bits(config.bits);
    let mut pass = Pass::default();
    let pass_span = tracer.begin("replay.pass");
    for batch in plan.batches() {
        let index = batch.batch_index;
        let subgraph = tracer.span("graph.block_diagonal", || {
            batch.to_dense_block_diagonal(&dataset.graph)
        });
        let features = tracer.span("graph.gather", || {
            subgraph.gather_features(&dataset.features)
        });
        let prepared = tracer.span("kernels.pack", || {
            let mut prepared =
                PreparedBatch::pack_quantized(index, subgraph, features, config.bits.min(8));
            if let Some(payload) = prepared.payload.as_mut() {
                if resolve_adjacency_path(config.kernel.adjacency_path, &payload.packed_adjacency)
                    == AdjacencyPath::Condensed
                {
                    payload.ensure_condensed();
                }
            }
            prepared
        });
        if prepared.num_nodes() == 0 {
            continue;
        }
        tracer.span("kernels.transfer", || {
            prepared.record_transfer(config.transfer, &tracker)
        });
        let output = tracer.span("gnn.forward", || {
            model.forward_prepared_quantized(
                &prepared,
                setting,
                Some(weights),
                &config.kernel,
                &tracker,
            )
        });
        std::hint::black_box(output);
        let payload = prepared
            .payload
            .as_ref()
            .expect("the low-bit path packs a payload");
        pass.payload_bytes += payload.transfer_bytes(config.transfer);
        let aggregated = tracer.span("kernels.aggregate", || {
            qgtc_aggregate_prepared(
                &payload.packed_adjacency,
                payload.condensed_adjacency.as_ref(),
                &payload.packed_features,
                &config.kernel,
                &scratch,
            )
        });
        std::hint::black_box(aggregated);
        pass.batches += 1;
    }
    tracer.end(pass_span);
    let pass_index = tracer.indices("replay.pass").pop().expect("opened above");
    let child = |name: &str| tracer.child_total_ms(pass_index, name);
    pass.block_diagonal_ms = child("graph.block_diagonal");
    pass.gather_ms = child("graph.gather");
    pass.pack_ms = child("kernels.pack");
    pass.forward_ms = child("gnn.forward");
    pass.aggregate_ms = child("kernels.aggregate");
    pass.glue_ms = tracer.self_time_ms(pass_index);
    pass.cost = tracker.snapshot();
    pass
}

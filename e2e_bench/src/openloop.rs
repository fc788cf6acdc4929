//! Open-loop traffic against a `QgtcSession`: one generator thread sends each
//! request when it is due; the serving thread submits whatever has arrived,
//! drains, and checks every response against the oracle.

use std::sync::mpsc;
use std::time::Instant;

use qgtc_core::{QgtcSession, ServeStats};

use crate::measure::{latency_from_due_ms, lateness_ms, ms_between, Schedule};
use crate::trace::Tracer;
use crate::workload::Oracle;

/// SplitMix64: request contents are a pure function of (seed, stream, index).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The traffic of one phase: `count` requests of `nodes_per_request`
/// uniformly drawn plan nodes at `rate_per_s`.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub seed: u64,
    /// Separates the phases of one run, so each draws its own requests.
    pub stream: u64,
    pub rate_per_s: f64,
    pub count: usize,
    pub nodes_per_request: usize,
}

impl Traffic {
    /// The node ids of request `index`.
    pub fn request(&self, index: usize, nodes: &[usize]) -> Vec<usize> {
        let base = splitmix(self.seed ^ splitmix(self.stream)) ^ (index as u64);
        (0..self.nodes_per_request)
            .map(|j| {
                let r = splitmix(splitmix(base) ^ (j as u64).wrapping_mul(0x9e37_79b9));
                nodes[(r % nodes.len() as u64) as usize]
            })
            .collect()
    }
}

/// One drain as the serving thread saw it.
#[derive(Debug, Clone, Copy)]
pub struct Drain {
    pub requests: usize,
    pub ms: f64,
    pub misses: u64,
    pub executed: u64,
}

/// Everything one open-loop phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Latency of each request from its due time, in request order.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request.
    pub lateness_ms: Vec<f64>,
    /// Due time to drain start, per request.
    pub queue_wait_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub drains: Vec<Drain>,
    pub attempted: u64,
    pub failed: u64,
    /// Session counters over the phase.
    pub stats: ServeStats,
    pub wall_ms: f64,
}

struct Sent {
    index: usize,
    due: Instant,
    nodes: Vec<usize>,
}

fn stats_delta(after: &ServeStats, before: &ServeStats) -> ServeStats {
    let mut d = ServeStats {
        requests: after.requests - before.requests,
        nodes_served: after.nodes_served - before.nodes_served,
        batches_executed: after.batches_executed - before.batches_executed,
        batch_touches: after.batch_touches - before.batch_touches,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        prepares_skipped: after.prepares_skipped - before.prepares_skipped,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        degraded_batches: after.degraded_batches - before.degraded_batches,
        weight_quantizations: after.weight_quantizations,
        ..ServeStats::default()
    };
    d.pool.fresh_allocations = after.pool.fresh_allocations - before.pool.fresh_allocations;
    d.pool.reuses = after.pool.reuses - before.pool.reuses;
    d
}

/// Run one open-loop phase to completion: every request is sent on
/// schedule, answered, and checked against `oracle`.
pub fn run_phase(
    session: &mut QgtcSession<'_>,
    oracle: &Oracle,
    nodes: &[usize],
    traffic: Traffic,
    tracer: &mut Tracer,
) -> PhaseResult {
    let mut out = PhaseResult {
        latency_ms: vec![f64::NAN; traffic.count],
        lateness_ms: vec![0.0; traffic.count],
        queue_wait_ms: Vec::with_capacity(traffic.count),
        ..PhaseResult::default()
    };
    let before = session.stats();
    let (tx, rx) = mpsc::channel::<(Sent, Instant)>();
    let start = Instant::now();
    let schedule = Schedule {
        start,
        rate_per_s: traffic.rate_per_s,
    };
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for index in 0..traffic.count {
                let due = schedule.due(index);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let nodes = traffic.request(index, nodes);
                let sent = Instant::now();
                if tx.send((Sent { index, due, nodes }, sent)).is_err() {
                    return;
                }
            }
        });
        let mut received = 0;
        let mut inflight: Vec<(usize, Instant)> = Vec::new();
        while received < traffic.count {
            let Ok(first) = rx.recv() else { break };
            let mut arrived = vec![first];
            arrived.extend(rx.try_iter());
            received += arrived.len();
            inflight.clear();
            for (request, sent) in arrived {
                out.lateness_ms[request.index] = lateness_ms(request.due, sent);
                out.attempted += 1;
                let t = Instant::now();
                let id = tracer.begin("serve.submit");
                let submitted = session.submit(request.nodes);
                tracer.end(id);
                out.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                match submitted {
                    Ok(_) => inflight.push((request.index, request.due)),
                    Err(_) => {
                        out.failed += 1;
                        out.latency_ms[request.index] = f64::INFINITY;
                    }
                }
            }
            let drain_start = Instant::now();
            let pre = session.stats();
            let drained = tracer.span("serve.drain", || session.drain());
            let done = Instant::now();
            let post = session.stats();
            out.drains.push(Drain {
                requests: inflight.len(),
                ms: ms_between(drain_start, done),
                misses: post.cache_misses - pre.cache_misses,
                executed: post.batches_executed - pre.batches_executed,
            });
            // Responses come back in submission order.
            let responses = drained.unwrap_or_default();
            for (k, &(index, due)) in inflight.iter().enumerate() {
                out.queue_wait_ms.push(ms_between(due, drain_start));
                let ok = responses.get(k).is_some_and(|r| {
                    r.degraded.is_empty() && oracle.matches(&r.node_ids, r.logits.data())
                });
                if ok {
                    out.latency_ms[index] = latency_from_due_ms(due, done);
                } else {
                    out.failed += 1;
                    out.latency_ms[index] = f64::INFINITY;
                }
            }
            for response in responses {
                session.recycle_response(response);
            }
        }
    });
    out.wall_ms = ms_between(start, Instant::now());
    out.stats = stats_delta(&session.stats(), &before);
    // A request never answered counts as failed and as missing every limit.
    for latency in &mut out.latency_ms {
        if latency.is_nan() {
            *latency = f64::INFINITY;
            out.failed += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_pure_in_seed_stream_and_index() {
        let nodes: Vec<usize> = (100..200).collect();
        let t = Traffic {
            seed: 7,
            stream: 1,
            rate_per_s: 10.0,
            count: 10,
            nodes_per_request: 4,
        };
        assert_eq!(t.request(3, &nodes), t.request(3, &nodes));
        assert_ne!(t.request(3, &nodes), t.request(4, &nodes));
        let other_seed = Traffic { seed: 8, ..t };
        assert_ne!(t.request(3, &nodes), other_seed.request(3, &nodes));
        let other_stream = Traffic { stream: 2, ..t };
        assert_ne!(t.request(3, &nodes), other_stream.request(3, &nodes));
        assert!(t.request(5, &nodes).iter().all(|n| nodes.contains(n)));
        assert_eq!(t.request(0, &nodes).len(), 4);
    }
}

//! `estimate_poisson`: fabric-scale capacity queries. Fat-tree k=16 with
//! websearch Poisson flows at load 0.3; one op is `SparseRoutes::build`
//! followed by `estimate` at the default thread count. It bypasses the
//! whole control plane.

use crate::check::{fct_lower_bound_ns, HopCounts};
use crate::trace::Trace;
use crate::{stats, Outcome, Params};
use sdt::estimate::{estimate, EstimateConfig, SparseRoutes};
use sdt::routing::{default_strategy, RoutingStrategy};
use sdt::sim::SimConfig;
use sdt::topology::fattree::fat_tree;
use sdt::topology::Topology;
use sdt::workloads::{poisson_flows, FlowSpec, SizeDist};
use std::time::Instant;

pub const K: u32 = 16;
pub const FLOWS: usize = 120_000;
pub const LOAD: f64 = 0.3;
/// Nominal ops per second of `--seconds`.
const OPS_PER_SECOND: u64 = 4;
const WARMUP_OPS: u64 = 2;

struct Fabric {
    topo: Topology,
    strategy: Box<dyn RoutingStrategy>,
}

/// The set-up: the fabric and its routing strategy.
fn fabric() -> Result<Fabric, String> {
    let topo = fat_tree(K);
    let strategy = default_strategy(&topo);
    Ok(Fabric { topo, strategy })
}

/// The op as users call it. When traced, `SparseRoutes::build` and
/// `estimate` each run in a span, and the stage times and work counts come
/// from the `EstimateStats` that `estimate` returns.
fn one_op(
    fab: &Fabric,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    threads: usize,
    tr: Option<(&mut Trace, u64)>,
) -> (Vec<u64>, Option<Layers>) {
    let est = EstimateConfig {
        threads,
        ..EstimateConfig::default()
    };
    let Some((t, op)) = tr else {
        let routes = SparseRoutes::build(&fab.topo, fab.strategy.as_ref(), flows);
        return (estimate(&fab.topo, &routes, flows, cfg, &est).fcts, None);
    };
    let root = Some(t.open("op", op, None));
    let routes = t.time("routing.sparse_routes", op, root, || {
        SparseRoutes::build(&fab.topo, fab.strategy.as_ref(), flows)
    });
    let report = t.time("estimate.estimate", op, root, || {
        estimate(&fab.topo, &routes, flows, cfg, &est)
    });
    if let Some(id) = root {
        t.close(id);
    }
    let s = &report.stats;
    let layers = Layers {
        stage_ns: [s.decompose_ns, s.cluster_ns, s.simulate_ns, s.aggregate_ns],
        counts: [
            ("routing.routed_pairs", routes.len() as f64),
            ("estimate.active_channels", s.active_channels as f64),
            ("estimate.crossings", s.crossings as f64),
            ("estimate.representatives", s.representatives as f64),
        ],
    };
    (report.fcts, Some(layers))
}

/// What one traced op reports for the per-layer metrics.
struct Layers {
    /// Decompose, cluster, simulate and aggregate wall times, ns.
    stage_ns: [u64; 4],
    counts: [(&'static str, f64); 4],
}

pub fn run(p: &Params, mut tr: Option<&mut Trace>, o: &mut Outcome) -> Result<(), String> {
    let cfg = SimConfig::default();
    let n_hosts = fat_tree(K).num_hosts();
    let flows = poisson_flows(
        &SizeDist::websearch(),
        n_hosts,
        cfg.bytes_per_ns(),
        LOAD,
        FLOWS,
        p.seed,
    );

    let fab = o.setup(fabric)?;

    let mut hops = HopCounts::new(&fab.topo);
    let bounds = flows
        .iter()
        .map(|f| {
            hops.channels(f.src, f.dst)
                .map(|ch| fct_lower_bound_ns(f.bytes, ch, &cfg))
                .ok_or_else(|| format!("hosts {} and {} are not connected", f.src.0, f.dst.0))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let check = |fcts: &[u64], reference: &[u64]| -> Result<(), String> {
        if fcts.len() != flows.len() {
            return Err(format!(
                "{} estimates for {} flows",
                fcts.len(),
                flows.len()
            ));
        }
        if let Some(i) = fcts.iter().zip(&bounds).position(|(f, b)| f < b) {
            return Err(format!(
                "flow {i}: estimate {} ns under the bound {} ns",
                fcts[i], bounds[i]
            ));
        }
        if !reference.is_empty() && fcts != reference {
            return Err("estimates differ from the run's first output".into());
        }
        Ok(())
    };

    // Untimed, once per run: 1 thread and the default count agree exactly.
    let reference = one_op(&fab, &flows, &cfg, 1, None).0;
    check(&reference, &[])?;

    o.warmup_ops = WARMUP_OPS;
    for _ in 0..WARMUP_OPS {
        check(&one_op(&fab, &flows, &cfg, 0, None).0, &reference)?;
    }
    let mut traced_layers = Vec::new();
    let ops = OPS_PER_SECOND * p.seconds;
    for i in 0..ops {
        o.attempted += 1;
        let traced = tr.is_some() && i % 2 == 1;
        let t = tr.as_deref_mut().filter(|_| traced).map(|t| (t, i));
        let t1 = Instant::now();
        let (fcts, layers) = one_op(&fab, &flows, &cfg, 0, t);
        let ns = t1.elapsed().as_nanos() as u64;
        check(&fcts, &reference)?;
        traced_layers.extend(layers);
        if traced {
            o.traced_op_ns.push(ns)
        } else {
            o.op_ns.push(ns)
        }
        o.completed += 1;
        drop(o.setup(fabric)?);
    }
    o.wall_s = o.op_ns.iter().chain(&o.traced_op_ns).sum::<u64>() as f64 / 1e9;
    o.facts.push(("flows", FLOWS.to_string()));

    if let Some(t) = tr {
        o.layers.insert(
            "routing.sparse_routes_ms",
            stats::median(&t.per_op_ms("routing.sparse_routes")).unwrap_or(0.0),
        );
        for (stage, layer) in [
            "estimate.decompose_ms",
            "estimate.cluster_ms",
            "estimate.simulate_ms",
            "estimate.aggregate_ms",
        ]
        .into_iter()
        .enumerate()
        {
            let ms: Vec<f64> = traced_layers
                .iter()
                .map(|l| l.stage_ns[stage] as f64 / 1e6)
                .collect();
            o.layers.insert(layer, stats::median(&ms).unwrap_or(0.0));
        }
        if let Some(l) = traced_layers.last() {
            o.layers.extend(l.counts);
        }
    }
    Ok(())
}

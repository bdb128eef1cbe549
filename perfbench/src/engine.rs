//! `engine_fabric`: the exact cell-level engine on a fat-tree k=8 with a
//! hadoop Poisson mix. One op is `Simulator::new`, scheduling every flow,
//! then `run` — single-threaded, so it moves only with `sim`.
//!
//! The input is the prefix of a seeded Poisson stream that carries a
//! fixed byte volume (the last flow trimmed to fit). Hadoop's tail puts
//! most bytes in a few 1–10 MB flows, so a fixed flow count would make the
//! engine's work swing several-fold from seed to seed.

use crate::check::{expected_cells, fct_lower_bound_ns, HopCounts};
use crate::trace::Trace;
use crate::{stats, Outcome, Params};
use sdt::routing::{default_strategy, RouteTable};
use sdt::sim::{SimConfig, SimOutcome, Simulator};
use sdt::topology::fattree::fat_tree;
use sdt::topology::Topology;
use sdt::workloads::{poisson_flows, FlowSpec, SizeDist};
use std::time::Instant;

pub const K: u32 = 8;
/// Bytes the flows of one op carry in total.
pub const BYTES: u64 = 80_000_000;
pub const LOAD: f64 = 0.3;
/// Nominal ops per second of `--seconds`.
const OPS_PER_SECOND: u64 = 7;
const WARMUP_OPS: u64 = 3;

/// What one op leaves behind, for the checks.
struct OpResult {
    events: u64,
    sim_ns: u64,
}

fn one_op(
    topo: &Topology,
    table: &RouteTable,
    cfg: &SimConfig,
    flows: &[FlowSpec],
    bounds: &[u64],
    expect_cells: u64,
    mut tr: Option<(&mut Trace, u64)>,
) -> Result<(u64, OpResult), String> {
    let t0 = Instant::now();
    let op_span = tr.as_mut().map(|(t, op)| t.open("op", *op, None));
    let mut span = |name: &'static str, f: &mut dyn FnMut()| match (&mut tr, op_span) {
        (Some((t, op)), Some(parent)) => t.time(name, *op, Some(parent), f),
        _ => f(),
    };
    let mut sim = None;
    span("sim.new", &mut || {
        sim = Some(Simulator::new(topo, table.clone(), cfg.clone()))
    });
    let Some(mut sim) = sim else {
        unreachable!("the closure above always runs")
    };
    span("sim.schedule", &mut || {
        for f in flows {
            sim.schedule_raw_flow(f.src, f.dst, f.bytes, f.start_ns);
        }
    });
    let mut outcome = SimOutcome::Completed;
    span("sim.run", &mut || outcome = sim.run());
    if let (Some((t, _)), Some(id)) = (&mut tr, op_span) {
        t.close(id);
    }
    let elapsed = t0.elapsed().as_nanos() as u64;

    if outcome != SimOutcome::Completed {
        return Err(format!("run ended {outcome:?}"));
    }
    let records = sim.flow_records();
    for (i, (r, &lb)) in records.iter().zip(bounds).enumerate() {
        let Some(fct) = r.fct_ns else {
            return Err(format!("flow {i} has no FCT"));
        };
        if fct < lb {
            return Err(format!(
                "flow {i}: FCT {fct} ns under the lower bound {lb} ns"
            ));
        }
    }
    if records.len() != flows.len() {
        return Err(format!(
            "{} flow records for {} flows",
            records.len(),
            flows.len()
        ));
    }
    let s = sim.stats();
    if s.cells_delivered != expect_cells {
        return Err(format!(
            "{} cells delivered, inputs need {expect_cells}",
            s.cells_delivered
        ));
    }
    if s.drops != 0 {
        return Err(format!("{} drops in lossless mode", s.drops));
    }
    if !sim.credits_intact() {
        return Err("credits not intact at the end of the run".into());
    }
    Ok((
        elapsed,
        OpResult {
            events: s.events,
            sim_ns: s.sim_ns,
        },
    ))
}

/// The set-up: the fabric and its host routes.
fn fabric() -> Result<(Topology, RouteTable), String> {
    let topo = fat_tree(K);
    let table = RouteTable::build_for_hosts(&topo, default_strategy(&topo).as_ref());
    Ok((topo, table))
}

/// The shortest prefix of `stream` carrying `budget` bytes, with its last
/// flow trimmed so the total is exact.
fn byte_budget(stream: Vec<FlowSpec>, budget: u64) -> Result<Vec<FlowSpec>, String> {
    let mut total = 0;
    let mut out = Vec::new();
    for mut f in stream {
        f.bytes = f.bytes.min(budget - total);
        total += f.bytes;
        out.push(f);
        if total == budget {
            return Ok(out);
        }
    }
    Err(format!(
        "the flow stream carries only {total} of {budget} bytes"
    ))
}

pub fn run(p: &Params, mut tr: Option<&mut Trace>, o: &mut Outcome) -> Result<(), String> {
    let cfg = SimConfig::testbed_10g();
    let n_hosts = fat_tree(K).num_hosts();
    let flows = byte_budget(
        poisson_flows(
            &SizeDist::hadoop(),
            n_hosts,
            cfg.bytes_per_ns(),
            LOAD,
            50_000,
            p.seed,
        ),
        BYTES,
    )?;

    let (topo, table) = o.setup(fabric)?;

    let mut hops = HopCounts::new(&topo);
    let bounds = flows
        .iter()
        .map(|f| {
            hops.channels(f.src, f.dst)
                .map(|ch| fct_lower_bound_ns(f.bytes, ch, &cfg))
                .ok_or_else(|| format!("hosts {} and {} are not connected", f.src.0, f.dst.0))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let cells = expected_cells(flows.iter().map(|f| f.bytes), cfg.granularity.bytes());

    o.warmup_ops = WARMUP_OPS;
    let mut first: Option<OpResult> = None;
    let mut same = |r: OpResult| match &first {
        None => {
            first = Some(r);
            Ok(())
        }
        Some(f) if f.events == r.events && f.sim_ns == r.sim_ns => Ok(()),
        Some(f) => Err(format!(
            "op not repeatable: {} events / {} sim ns, first op {} / {}",
            r.events, r.sim_ns, f.events, f.sim_ns
        )),
    };
    for _ in 0..WARMUP_OPS {
        same(one_op(&topo, &table, &cfg, &flows, &bounds, cells, None)?.1)?;
    }
    let ops = OPS_PER_SECOND * p.seconds;
    for i in 0..ops {
        o.attempted += 1;
        let traced = tr.is_some() && i % 2 == 1;
        let t = if traced {
            tr.as_deref_mut().map(|t| (t, i))
        } else {
            None
        };
        let (ns, r) = one_op(&topo, &table, &cfg, &flows, &bounds, cells, t)?;
        same(r)?;
        if traced {
            o.traced_op_ns.push(ns)
        } else {
            o.op_ns.push(ns)
        }
        o.completed += 1;
        drop(o.setup(fabric)?);
    }
    o.wall_s = o.op_ns.iter().chain(&o.traced_op_ns).sum::<u64>() as f64 / 1e9;

    let Some(f) = first else {
        return Err("no op ran".into());
    };
    o.facts.push(("flows", flows.len().to_string()));
    o.facts.push(("events_per_op", f.events.to_string()));
    o.facts.push(("cells_per_op", cells.to_string()));
    if let Some(t) = tr {
        let run_ms = stats::median(&t.per_op_ms("sim.run")).unwrap_or(0.0);
        o.layers.insert(
            "sim.new_ms",
            stats::median(&t.per_op_ms("sim.new")).unwrap_or(0.0),
        );
        o.layers.insert("sim.run_ms", run_ms);
        o.layers.insert("sim.events", f.events as f64);
        o.layers.insert("sim.cells_delivered", cells as f64);
        o.layers.insert("sim.sim_ns", f.sim_ns as f64);
        if run_ms > 0.0 {
            o.layers
                .insert("sim.events_per_s", f.events as f64 / (run_ms / 1e3));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt::topology::HostId;

    fn flow(bytes: u64) -> FlowSpec {
        FlowSpec {
            src: HostId(0),
            dst: HostId(1),
            bytes,
            start_ns: 0,
        }
    }

    #[test]
    fn byte_budget_trims_the_crossing_flow() {
        let got = byte_budget(vec![flow(5), flow(10), flow(7)], 12).unwrap_or_default();
        assert_eq!(got.iter().map(|f| f.bytes).collect::<Vec<_>>(), vec![5, 7]);
        let exact = byte_budget(vec![flow(5), flow(7), flow(9)], 12).unwrap_or_default();
        assert_eq!(
            exact.iter().map(|f| f.bytes).collect::<Vec<_>>(),
            vec![5, 7]
        );
        assert!(byte_budget(vec![flow(5)], 12).is_err());
    }
}

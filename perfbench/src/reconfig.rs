//! `reconfig_cycle`: the paper's core operation. A fat-tree k=6 slice
//! migrates to a 6x9 torus and back through scheduled reconfiguration,
//! next to a chain-4 co-tenant, over a control channel that drops and
//! reorders 20% of flow-mods. One op is one round trip.

use crate::check::SplitMix;
use crate::trace::Trace;
use crate::{stats, Outcome, Params};
use sdt::controller::SliceController;
use sdt::core::cluster::ClusterBuilder;
use sdt::core::methods::SwitchModel;
use sdt::core::SdtProjector;
use sdt::openflow::{ControlChannel, ControlConfig};
use sdt::tenancy::{RetryPolicy, ScheduleReport, SliceId};
use sdt::topology::chain::chain;
use sdt::topology::fattree::fat_tree;
use sdt::topology::meshtorus::torus;
use sdt::topology::Topology;
use std::time::Instant;

pub const K: u32 = 6;
pub const TORUS: [u32; 2] = [6, 9];
pub const DROP: f64 = 0.2;
pub const REORDER: f64 = 0.2;
pub const RETRIES: u32 = 12;
/// Nominal ops per second of `--seconds`.
const OPS_PER_SECOND: u64 = 4;
const WARMUP_OPS: u64 = 1;

/// The 4-switch carrier of synthetic 512-port switches.
fn controller() -> Result<(SliceController, SliceId), String> {
    let wide = SwitchModel {
        name: "synthetic 512x100G",
        ports: 512,
        gbps: 100,
        price_usd: 0,
        table_capacity: 262_144,
        p4: false,
    };
    let cluster = ClusterBuilder::new(wide, 4)
        .hosts_per_switch(40)
        .inter_links_per_pair(64)
        .build();
    let mut ctl = SliceController::new(cluster);
    ctl.manager_mut().set_retry_policy(RetryPolicy {
        max_retries: RETRIES,
        ..Default::default()
    });
    ctl.create("co-tenant", &chain(4), "default")
        .map_err(|e| format!("co-tenant: {e}"))?;
    let id = ctl
        .create("migrant", &fat_tree(K), "default")
        .map_err(|e| format!("migrant: {e}"))?;
    Ok((ctl, id))
}

/// Channel seed of one migration: fixed by the run seed, the cycle index
/// and the direction.
fn channel(seed: u64, cycle: u64, leg: u64) -> ControlChannel {
    let mut rng = SplitMix(seed ^ (cycle << 1 | leg).wrapping_mul(0x2545_f491_4f6c_dd1d));
    ControlChannel::new(ControlConfig {
        drop_prob: DROP,
        reorder_prob: REORDER,
        seed: rng.next_u64(),
        ..ControlConfig::reliable()
    })
}

/// One migration, with spans around each layer when traced, then its
/// checks. Returns the schedule and the host time of the reconfiguration
/// alone (the checks are not timed).
fn migrate(
    ctl: &mut SliceController,
    id: SliceId,
    to: &Topology,
    ch: &mut ControlChannel,
    tr: Option<(&mut Trace, u64)>,
) -> Result<(ScheduleReport, u64), String> {
    let t0 = Instant::now();
    let res = match tr {
        None => ctl
            .reconfigure_scheduled(id, to, "default", ch)
            .map_err(|e| e.to_string()),
        Some((t, op)) => {
            let root = Some(t.open("op.migrate", op, None));
            let r = (|| {
                let routes = t
                    .time("routing.routes", op, root, || {
                        ctl.resolve_routes(to, "default")
                    })
                    .map_err(|e| e.to_string())?;
                t.time("core.project", op, root, || {
                    SdtProjector::default().project(to, ctl.manager().cluster(), &routes)
                })
                .map_err(|e| e.to_string())?;
                let plan = t
                    .time("tenancy.plan", op, root, || {
                        ctl.manager().plan_scheduled_with_routes(id, to, routes)
                    })
                    .map_err(|e| e.to_string())?;
                t.time("tenancy.commit", op, root, || {
                    ctl.manager_mut().commit_scheduled(plan, ch)
                })
                .map_err(|e| e.to_string())
            })();
            if let Some(id) = root {
                t.close(id);
            }
            r
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    let (_, sched) = res?;
    if !sched.converged || sched.violations != 0 {
        return Err(format!(
            "to {}: converged={} with {} violations",
            to.name(),
            sched.converged,
            sched.violations
        ));
    }
    let audit = ctl.audit();
    if !audit.clean() {
        return Err(format!("to {}: isolation audit not clean", to.name()));
    }
    let live: usize = ctl
        .manager()
        .switches()
        .iter()
        .map(|s| s.total_entries())
        .sum();
    let owned: usize = ctl.manager().slices().map(|s| s.entries()).sum();
    if live != owned {
        return Err(format!("{live} live entries, slices own {owned}"));
    }
    Ok((sched, ns))
}

#[derive(Default)]
struct Counts {
    proof_ns: Vec<u64>,
    pairs_walked: u64,
    rounds: u64,
    merges: u64,
    reverifications: u64,
    flow_mods: u64,
    sends: u64,
    retries: u64,
}

impl Counts {
    /// Add one migration's counts; returns its proof wall time, ns.
    fn add(&mut self, s: &ScheduleReport) -> u64 {
        self.pairs_walked += s.rounds.iter().map(|r| r.pairs_walked as u64).sum::<u64>();
        self.rounds += s.rounds.len() as u64;
        self.merges += s.merges as u64;
        self.reverifications += s.reverifications as u64;
        self.flow_mods += s.total_mods as u64;
        self.sends += s.rounds.iter().map(|r| r.sends).sum::<u64>();
        self.retries += s.rounds.iter().map(|r| u64::from(r.retries)).sum::<u64>();
        s.rounds.iter().map(|r| r.proof_wall_ns).sum()
    }
}

fn traced_op<'a>(
    tr: &'a mut Option<&mut Trace>,
    on: bool,
    op: u64,
) -> Option<(&'a mut Trace, u64)> {
    tr.as_deref_mut().filter(|_| on).map(|t| (t, op))
}

pub fn run(p: &Params, mut tr: Option<&mut Trace>, o: &mut Outcome) -> Result<(), String> {
    let (there, back) = (torus(&TORUS), fat_tree(K));
    let (mut ctl, id) = o.setup(controller)?;
    o.warmup_ops = WARMUP_OPS;
    let mut counts = Counts::default();

    let ops = OPS_PER_SECOND * p.seconds;
    for cycle in 0..WARMUP_OPS + ops {
        let timed = cycle >= WARMUP_OPS;
        let traced = timed && tr.is_some() && cycle % 2 == 1;
        let (mut out_ch, mut back_ch) = (channel(p.seed, cycle, 0), channel(p.seed, cycle, 1));
        o.attempted += u64::from(timed);
        let (a, a_ns) = migrate(
            &mut ctl,
            id,
            &there,
            &mut out_ch,
            traced_op(&mut tr, traced, cycle),
        )?;
        let (b, b_ns) = migrate(
            &mut ctl,
            id,
            &back,
            &mut back_ch,
            traced_op(&mut tr, traced, cycle),
        )?;
        if !timed {
            continue;
        }
        let ns = a_ns + b_ns;
        let proof = counts.add(&a) + counts.add(&b);
        counts.proof_ns.push(proof);
        if traced {
            o.traced_op_ns.push(ns)
        } else {
            o.op_ns.push(ns)
        }
        o.completed += 1;
        drop(o.setup(controller)?);
    }
    o.wall_s = o.op_ns.iter().chain(&o.traced_op_ns).sum::<u64>() as f64 / 1e9;
    let entries = ctl.manager().walk_cache_entries();
    o.facts.push(("walk_cache_entries", entries.to_string()));
    o.facts.push(("flow_mods", counts.flow_mods.to_string()));

    if let Some(t) = tr {
        for (layer, span) in [
            ("routing.routes_ms", "routing.routes"),
            ("core.project_ms", "core.project"),
            ("tenancy.plan_ms", "tenancy.plan"),
            ("tenancy.commit_ms", "tenancy.commit"),
        ] {
            o.layers
                .insert(layer, stats::median(&t.per_op_ms(span)).unwrap_or(0.0));
        }
        let proof_ms: Vec<f64> = counts.proof_ns.iter().map(|&n| n as f64 / 1e6).collect();
        o.layers
            .insert("verify.proof_ms", stats::median(&proof_ms).unwrap_or(0.0));
        o.layers
            .insert("verify.pairs_walked", counts.pairs_walked as f64);
        o.layers.insert("verify.walk_cache_entries", entries as f64);
        o.layers.insert("tenancy.rounds", counts.rounds as f64);
        o.layers.insert("tenancy.merges", counts.merges as f64);
        o.layers
            .insert("tenancy.reverifications", counts.reverifications as f64);
        o.layers
            .insert("openflow.flow_mods", counts.flow_mods as f64);
        o.layers.insert("openflow.sends", counts.sends as f64);
        o.layers.insert("openflow.retries", counts.retries as f64);
    }
    Ok(())
}

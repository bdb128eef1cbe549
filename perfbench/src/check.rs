//! Checkers that judge the program's outputs without reusing its code.
//!
//! The FCT bound is derived here from `SimConfig` fields and a
//! breadth-first search over the topology's links; it does not call the
//! estimator's `ideal_fct` or the routing crate. Cell conservation and the
//! churn script's slice ids are computed from the generated inputs alone.

use sdt::sim::SimConfig;
use sdt::topology::{HostId, SwitchId, Topology};
use std::collections::VecDeque;

/// Shortest host-to-host paths in directed channels (host link, fabric
/// links, host link), by BFS over the switch graph from each source
/// switch. Any route the program picks is at least this long.
pub struct HopCounts {
    host_switch: Vec<u32>,
    /// `dist[s][t]`: fabric links between switch `s` and `t`, filled per
    /// source switch on first use.
    dist: Vec<Option<Vec<u32>>>,
    adj: Vec<Vec<u32>>,
}

impl HopCounts {
    pub fn new(topo: &Topology) -> HopCounts {
        let n = topo.num_switches() as usize;
        let adj = (0..n)
            .map(|s| {
                topo.neighbors(SwitchId(s as u32))
                    .iter()
                    .map(|(t, _)| t.0)
                    .collect()
            })
            .collect();
        let host_switch = (0..topo.num_hosts())
            .map(|h| topo.host_switch(HostId(h)).0)
            .collect();
        HopCounts {
            host_switch,
            dist: vec![None; n],
            adj,
        }
    }

    fn distances_from(&mut self, s: u32) -> &[u32] {
        let adj = &self.adj;
        self.dist[s as usize].get_or_insert_with(|| {
            let mut d = vec![u32::MAX; adj.len()];
            let mut q = VecDeque::from([s]);
            d[s as usize] = 0;
            while let Some(u) = q.pop_front() {
                for &v in &adj[u as usize] {
                    if d[v as usize] == u32::MAX {
                        d[v as usize] = d[u as usize] + 1;
                        q.push_back(v);
                    }
                }
            }
            d
        })
    }

    /// Directed channels on the shortest path from `src` to `dst`; `None`
    /// if they are not connected. A host talking to itself crosses none.
    pub fn channels(&mut self, src: HostId, dst: HostId) -> Option<u32> {
        if src == dst {
            return Some(0);
        }
        let (a, b) = (self.host_switch[src.idx()], self.host_switch[dst.idx()]);
        let d = self.distances_from(a)[b as usize];
        (d != u32::MAX).then_some(d + 2)
    }
}

/// A floor under any flow's completion time: every byte serialized once
/// at line rate, plus wire latency on each channel of the shortest path
/// and the switch transit latency of each switch on it.
pub fn fct_lower_bound_ns(bytes: u64, channels: u32, cfg: &SimConfig) -> u64 {
    if channels == 0 {
        return 0;
    }
    let serialize = (bytes as f64 * 8.0 / cfg.link_gbps).floor() as u64;
    serialize
        + u64::from(channels) * cfg.link_latency_ns
        + u64::from(channels - 1) * (cfg.switch_latency_ns + cfg.extra_switch_ns)
}

/// Cells a lossless run must deliver: `ceil(bytes / cell)` per flow.
pub fn expected_cells(bytes: impl IntoIterator<Item = u64>, cell_bytes: u32) -> u64 {
    bytes
        .into_iter()
        .map(|b| b.div_ceil(u64::from(cell_bytes)))
        .sum()
}

/// One request of the `tenant_churn` script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// Admit a chain-3 slice; the daemon must hand back this id.
    Admit { expect_id: u32 },
    /// Migrate this slice to a ring-3 with up/down routing.
    Migrate { id: u32 },
    /// Destroy this slice.
    Destroy { id: u32 },
}

/// The churn script: per window, `w` admits, then `w` migrates and `w`
/// destroys of the same slices, each in a seeded order. Slice ids are
/// named in advance: the daemon numbers admitted slices from 0 in
/// admission order, so window `k`'s admits get `k*w .. k*w + w`.
pub fn churn_script(windows: usize, w: usize, seed: u64) -> Vec<Vec<ChurnOp>> {
    let mut rng = SplitMix(seed ^ 0xc4u64.rotate_left(56));
    (0..windows)
        .map(|k| {
            let ids: Vec<u32> = (0..w).map(|j| (k * w + j) as u32).collect();
            let mut ops: Vec<ChurnOp> = ids
                .iter()
                .map(|&expect_id| ChurnOp::Admit { expect_id })
                .collect();
            let mut order = ids.clone();
            rng.shuffle(&mut order);
            ops.extend(order.iter().map(|&id| ChurnOp::Migrate { id }));
            rng.shuffle(&mut order);
            ops.extend(order.iter().map(|&id| ChurnOp::Destroy { id }));
            ops
        })
        .collect()
}

/// Small seeded generator for the benchmark's own choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdt::routing::{default_strategy, RouteTable};
    use sdt::sim::{Granularity, SimOutcome, Simulator};
    use sdt::topology::fattree::fat_tree;
    use sdt::topology::TopologyBuilder;

    /// s0 - s1 - s2, host 0 on s0, host 1 on s0, host 2 on s2.
    fn line3() -> Topology {
        let mut b = TopologyBuilder::new("line3", 3, 3);
        b.fabric(SwitchId(0), SwitchId(1))
            .fabric(SwitchId(1), SwitchId(2));
        b.attach(HostId(0), SwitchId(0))
            .attach(HostId(1), SwitchId(0));
        b.attach(HostId(2), SwitchId(2));
        match b.build() {
            Ok(t) => t,
            Err(e) => panic!("line3: {e}"),
        }
    }

    #[test]
    fn hop_counts_by_hand() {
        let mut h = HopCounts::new(&line3());
        assert_eq!(h.channels(HostId(0), HostId(0)), Some(0));
        // Same switch: host link up, host link down.
        assert_eq!(h.channels(HostId(0), HostId(1)), Some(2));
        // Two fabric links between s0 and s2.
        assert_eq!(h.channels(HostId(0), HostId(2)), Some(4));
        assert_eq!(h.channels(HostId(2), HostId(1)), Some(4));
    }

    #[test]
    fn fat_tree_paths_are_two_four_or_six_channels() {
        let topo = fat_tree(4);
        let mut h = HopCounts::new(&topo);
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..topo.num_hosts() {
            for d in 0..topo.num_hosts() {
                if s != d {
                    seen.insert(h.channels(HostId(s), HostId(d)).unwrap_or(0));
                }
            }
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![2, 4, 6]);
    }

    #[test]
    fn lower_bound_by_hand() {
        // 10 Gb/s, 100 ns wire, 500 ns switch.
        let cfg = SimConfig::default();
        // 1500 B at 1.25 B/ns = 1200 ns; 2 wires; 1 switch.
        assert_eq!(fct_lower_bound_ns(1500, 2, &cfg), 1200 + 200 + 500);
        // 10_001 B -> 8000.8 ns, floored; 6 wires, 5 switches.
        assert_eq!(fct_lower_bound_ns(10_001, 6, &cfg), 8000 + 600 + 2500);
        let slow = SimConfig {
            extra_switch_ns: 40,
            ..SimConfig::default()
        };
        assert_eq!(fct_lower_bound_ns(1500, 4, &slow), 1200 + 400 + 3 * 540);
        assert_eq!(fct_lower_bound_ns(123, 0, &cfg), 0);
    }

    #[test]
    fn lower_bound_sits_under_a_lone_engine_flow() {
        let topo = fat_tree(4);
        let routes = RouteTable::build_for_hosts(&topo, default_strategy(&topo).as_ref());
        let cfg = SimConfig::default();
        let mut hops = HopCounts::new(&topo);
        for (dst, bytes) in [(1u32, 1_500u64), (2, 64_000), (15, 1_000_000)] {
            let mut sim = Simulator::new(&topo, routes.clone(), cfg.clone());
            sim.schedule_raw_flow(HostId(0), HostId(dst), bytes, 0);
            assert_eq!(sim.run(), SimOutcome::Completed);
            let fct = sim.flow_records()[0].fct_ns.unwrap_or(0);
            let ch = hops.channels(HostId(0), HostId(dst)).unwrap_or(0);
            let lb = fct_lower_bound_ns(bytes, ch, &cfg);
            assert!(lb <= fct, "dst {dst}: bound {lb} above engine FCT {fct}");
            // Tight on an idle fabric: within a few cut-through latches.
            assert!(
                fct - lb < 500 * u64::from(ch),
                "dst {dst}: bound {lb} far below {fct}"
            );
        }
    }

    #[test]
    fn cell_conservation_by_hand() {
        assert_eq!(expected_cells([1, 1500, 1501, 3000], 1500), 1 + 1 + 2 + 2);
        assert_eq!(expected_cells([64, 65], Granularity::Flit.bytes()), 1 + 2);
        assert_eq!(expected_cells([], 1500), 0);
    }

    #[test]
    fn churn_script_names_ids_in_admission_order() {
        let script = churn_script(2, 3, 7);
        assert_eq!(script.len(), 2);
        for (k, window) in script.iter().enumerate() {
            let base = 3 * k as u32;
            assert_eq!(
                &window[..3],
                &[
                    ChurnOp::Admit { expect_id: base },
                    ChurnOp::Admit {
                        expect_id: base + 1
                    },
                    ChurnOp::Admit {
                        expect_id: base + 2
                    },
                ]
            );
            let mut migrated: Vec<u32> = window[3..6]
                .iter()
                .map(|op| match op {
                    ChurnOp::Migrate { id } => *id,
                    other => panic!("expected a migrate, got {other:?}"),
                })
                .collect();
            let mut destroyed: Vec<u32> = window[6..]
                .iter()
                .map(|op| match op {
                    ChurnOp::Destroy { id } => *id,
                    other => panic!("expected a destroy, got {other:?}"),
                })
                .collect();
            migrated.sort_unstable();
            destroyed.sort_unstable();
            assert_eq!(migrated, vec![base, base + 1, base + 2]);
            assert_eq!(destroyed, vec![base, base + 1, base + 2]);
        }
    }

    #[test]
    fn churn_script_repeats_per_seed_and_varies_across_seeds() {
        assert_eq!(churn_script(4, 16, 1), churn_script(4, 16, 1));
        assert_ne!(churn_script(4, 16, 1), churn_script(4, 16, 2));
    }
}

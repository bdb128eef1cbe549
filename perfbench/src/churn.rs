//! `tenant_churn`: the daemon path tenants use. An in-process `sdtd` on a
//! Unix socket inside the checkout, with its snapshot on the same disk.
//! One connection pipelines a fixed script in windows of W admits (chain-3),
//! W migrates (ring-3, up/down) and W destroys. One op is one request,
//! timed from its write to its reply.
//!
//! The daemon is never restarted and its verifier cache never reset, so a
//! cache that keeps entries for destroyed slices shows in `peak_rss_mb`,
//! `op_tail_ms` and `verify.walk_cache_entries`.

use crate::check::{churn_script, ChurnOp};
use crate::trace::Trace;
use crate::{run_dir, stats, Outcome, Params};
use sdt::controller::{Json, SliceController, TestbedConfig};
use sdt::sdtd::snapshot::write_atomic;
use sdt::sdtd::{run as serve, ClusterSpec, DaemonMetrics, DaemonOptions, DaemonState, Snapshot};
use sdt::tenancy::{OpOutcome, SliceId, SliceOp};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The shared cluster, as `bench_sdtd` wires it.
pub const CLUSTER: &str = "[topology]\nkind = \"chain\"\nn = 3\n\n[cluster]\nswitches = 4\n\
                           model = \"openflow-128x100g\"\nhosts_per_switch = 16\n\
                           inter_links_per_pair = 16\n";
/// What each tenant admits: a chain-3 on the same cluster.
pub const ADMIT: &str = CLUSTER;
/// What it migrates to.
pub const MIGRATE: &str = "[topology]\nkind = \"ring\"\nn = 3\n\n\
                           [cluster]\nswitches = 4\nmodel = \"openflow-128x100g\"\n\
                           hosts_per_switch = 16\ninter_links_per_pair = 16\n\n\
                           [routing]\nstrategy = \"updown\"\n";
/// Slices per window.
pub const W: usize = 16;
pub const BATCH_MAX: usize = 64;
/// Timed windows per second of `--seconds`. The daemon's memory grows
/// with every window (see the module docs), so this also sets how far the
/// fault shows.
const WINDOWS_PER_SECOND: usize = 5;
const WARMUP_WINDOWS: usize = 2;
/// Reply gap that marks the start of a new daemon run (a run's replies go
/// out back to back; runs are at least one proof and snapshot apart).
const RUN_GAP: Duration = Duration::from_micros(200);

/// A daemon serving on its own socket; shut down on drop if not before.
struct Daemon {
    socket: PathBuf,
    snapshot: PathBuf,
    handle: Option<JoinHandle<Result<DaemonMetrics, String>>>,
    conn: Conn,
}

impl Daemon {
    fn start(dir: &Path, tag: usize) -> Result<Daemon, String> {
        let socket = dir.join(format!("sdtd-{tag}.sock"));
        let snapshot = dir.join(format!("state-{tag}.json"));
        let state = DaemonState::fresh(CLUSTER)?;
        let opts = DaemonOptions {
            socket: socket.clone(),
            snapshot: Some(snapshot.clone()),
            batch_max: BATCH_MAX,
        };
        let handle = Some(std::thread::spawn(move || serve(state, opts)));
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => std::thread::sleep(Duration::from_micros(100)),
            }
        };
        let conn = Conn::new(stream)?;
        let mut d = Daemon {
            socket,
            snapshot,
            handle,
            conn,
        };
        d.conn.call("ping", Vec::new())?;
        Ok(d)
    }

    fn shutdown(&mut self) -> Result<DaemonMetrics, String> {
        let _ = self.conn.call("shutdown", Vec::new());
        match self.handle.take().map(JoinHandle::join) {
            Some(Ok(r)) => r,
            Some(Err(_)) => Err("daemon thread panicked".into()),
            None => Err("daemon already shut down".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.shutdown();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: u64,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            reader: BufReader::new(read_half),
            next_id: 1,
        })
    }

    /// Encode one request line under the next id.
    fn encode(&mut self, method: &str, params: Vec<(String, Json)>) -> (u64, String) {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = Json::Obj(vec![
            ("id".into(), Json::u64(id)),
            ("method".into(), Json::str(method)),
            ("params".into(), Json::Obj(params)),
        ])
        .emit();
        line.push('\n');
        (id, line)
    }

    fn write(&mut self, bytes: &str) -> Result<(), String> {
        self.stream
            .write_all(bytes.as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    /// Read the next reply, checking it answers request `id`.
    fn recv(&mut self, id: u64) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            Ok(_) => return Err("daemon closed the connection".into()),
            Err(e) => return Err(format!("read: {e}")),
        }
        let doc = Json::parse(line.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
        match doc.get("id").and_then(Json::as_u64) {
            Some(got) if got == id => Ok(doc),
            got => Err(format!("reply for {got:?}, expected {id}")),
        }
    }

    /// One request that must succeed.
    fn call(&mut self, method: &str, params: Vec<(String, Json)>) -> Result<Json, String> {
        let (id, line) = self.encode(method, params);
        self.write(&line)?;
        let doc = self.recv(id)?;
        if ok(&doc) {
            Ok(doc)
        } else {
            Err(format!(
                "{method}: {}",
                doc.get("error").and_then(Json::as_str).unwrap_or("?")
            ))
        }
    }
}

fn ok(doc: &Json) -> bool {
    doc.get("ok").and_then(Json::as_bool) == Some(true)
}

fn field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reply lacks `{key}`"))
}

fn request(op: ChurnOp) -> (&'static str, Vec<(String, Json)>) {
    match op {
        ChurnOp::Admit { .. } => ("admit", vec![("config".into(), Json::str(ADMIT))]),
        ChurnOp::Migrate { id } => (
            "migrate",
            vec![
                ("id".into(), Json::u64(id.into())),
                ("config".into(), Json::str(MIGRATE)),
            ],
        ),
        ChurnOp::Destroy { id } => ("destroy", vec![("id".into(), Json::u64(id.into()))]),
    }
}

/// Resources a status reply says are in use.
fn usage(doc: &Json) -> Result<[u64; 3], String> {
    Ok([
        field(doc, "slices")?,
        field(doc, "host_ports_used")?,
        field(doc, "cables_used")?,
    ])
}

pub fn run(p: &Params, mut tr: Option<&mut Trace>, o: &mut Outcome) -> Result<(), String> {
    let dir = run_dir(p);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let windows = WINDOWS_PER_SECOND * p.seconds as usize;
    let script = churn_script(WARMUP_WINDOWS + windows, W, p.seed);

    let mut d = o.setup(|| Daemon::start(&dir, 0))?;
    let fresh = usage(&d.conn.call("status", Vec::new())?)?;
    o.warmup_ops = (WARMUP_WINDOWS * 3 * W) as u64;

    // Windows go back to back; each one is a single write of all its
    // requests, and the daemon batches whatever its reader has parsed.
    let mut window_ms = Vec::new();
    let mut window_runs: Vec<Vec<usize>> = Vec::new();
    for (k, window) in script.iter().enumerate() {
        let timed = k >= WARMUP_WINDOWS;
        let traced = timed && tr.is_some() && k % 2 == 1;
        let mut ids = Vec::with_capacity(window.len());
        let mut batch = String::new();
        for &op in window {
            let (method, params) = request(op);
            let (id, line) = d.conn.encode(method, params);
            ids.push(id);
            batch.push_str(&line);
        }
        let t_write = Instant::now();
        d.conn.write(&batch)?;
        let mut last = t_write;
        let mut runs: Vec<usize> = Vec::new();
        for (&op, &id) in window.iter().zip(&ids) {
            let reply = d.conn.recv(id)?;
            let now = Instant::now();
            // The daemon writes a run's replies back to back after its one
            // snapshot; a longer gap means the next reply closed a new run.
            if runs.is_empty() || now.duration_since(last) > RUN_GAP {
                runs.push(0);
            }
            if let Some(n) = runs.last_mut() {
                *n += 1;
            }
            last = now;
            o.attempted += u64::from(timed);
            if !ok(&reply) {
                o.failed += u64::from(timed);
                return Err(format!(
                    "request {id} ({}) refused: {}",
                    request(op).0,
                    reply.get("error").and_then(Json::as_str).unwrap_or("?")
                ));
            }
            if let ChurnOp::Admit { expect_id } = op {
                let got = field(&reply, "slice")?;
                if got != u64::from(expect_id) {
                    return Err(format!(
                        "admit {id} got slice {got}, script named {expect_id}"
                    ));
                }
            }
            if !timed {
                continue;
            }
            let ns = now.duration_since(t_write).as_nanos() as u64;
            if let (true, Some(t)) = (traced, tr.as_deref_mut()) {
                t.record("sdtd.request", id, None, t_write, now);
                o.traced_op_ns.push(ns);
            } else {
                o.op_ns.push(ns);
            }
            o.completed += 1;
        }
        window_runs.push(runs);
        if timed {
            let wall = last.duration_since(t_write);
            o.wall_s += wall.as_secs_f64();
            window_ms.push(wall.as_secs_f64() * 1e3);
            drop(o.setup(|| Daemon::start(&dir, k + 1))?);
        }
    }

    // End state: nothing live, everything returned, tables still proven.
    let counters = d.conn.call("metrics", Vec::new())?;
    let end = usage(&d.conn.call("status", Vec::new())?)?;
    if end != fresh || end[0] != 0 {
        return Err(format!(
            "end status {end:?} (slices, host ports, cables); fresh daemon {fresh:?}"
        ));
    }
    let verify = d.conn.call(
        "verify",
        vec![
            ("json".into(), Json::Bool(true)),
            ("stats".into(), Json::Bool(true)),
        ],
    )?;
    let entries = cache_entries(&verify)?;
    d.shutdown()?;
    let mut restored = DaemonState::from_snapshot_file(&d.snapshot)?;
    if restored.slice_count() != 0 || !restored.verify_holds() {
        return Err(format!(
            "restored snapshot holds {} slices, verifies {}",
            restored.slice_count(),
            restored.verify_holds()
        ));
    }
    o.facts.push(("windows", windows.to_string()));
    o.facts.push(("window", W.to_string()));
    o.facts.push(("walk_cache_entries", entries.to_string()));
    o.facts
        .push(("batches", field(&counters, "batches")?.to_string()));

    if let Some(t) = tr {
        for (name, key) in [
            ("sdtd.batches", "batches"),
            ("sdtd.batched_ops", "batched_ops"),
            ("sdtd.largest_batch", "largest_batch"),
            ("sdtd.snapshot_writes", "snapshot_writes"),
            ("sdtd.drain_cycles", "drain_cycles"),
        ] {
            o.layers.insert(name, field(&counters, key)? as f64);
        }
        o.layers.insert("verify.walk_cache_entries", entries as f64);
        let replay = replay(&script, &window_runs, &dir, t)?;
        // Per timed window: its wall time less the replayed apply and
        // snapshot time of the same runs is socket, JSON and queueing.
        let apply = t.per_op_ms("tenancy.apply_batch");
        let snaps = t.per_op_ms("sdtd.snapshot");
        let other: Vec<f64> = window_ms
            .iter()
            .enumerate()
            .map(|(i, wall)| wall - apply[WARMUP_WINDOWS + i] - snaps[WARMUP_WINDOWS + i])
            .collect();
        o.layers.insert(
            "tenancy.apply_batch_ms",
            stats::median(&apply[WARMUP_WINDOWS..]).unwrap_or(0.0),
        );
        o.layers.insert("sdtd.snapshot_ms", replay.snapshot_ms);
        o.layers
            .insert("sdtd.snapshot_bytes", replay.snapshot_bytes);
        o.layers
            .insert("sdtd.other_ms", stats::median(&other).unwrap_or(0.0));
    }
    Ok(())
}

/// The `cache_entries` count inside a `verify --json --stats` report.
fn cache_entries(reply: &Json) -> Result<u64, String> {
    let out = reply
        .get("output")
        .and_then(Json::as_str)
        .ok_or("verify reply lacks output")?;
    let doc = Json::parse(out).map_err(|e| format!("verify output: {e}"))?;
    find(&doc, "cache_entries").ok_or_else(|| "verify output lacks cache_entries".into())
}

fn find(doc: &Json, key: &str) -> Option<u64> {
    if let Some(v) = doc.get(key).and_then(Json::as_u64) {
        return Some(v);
    }
    match doc {
        Json::Obj(kv) => kv.iter().find_map(|(_, v)| find(v, key)),
        Json::Arr(xs) => xs.iter().find_map(|v| find(v, key)),
        _ => None,
    }
}

struct Replay {
    /// Mean time of one snapshot capture + encode + atomic write.
    snapshot_ms: f64,
    /// Largest snapshot written.
    snapshot_bytes: f64,
}

/// Replay the script in-process through `SliceManager::apply_batch`, in
/// the runs the daemon formed (read off its reply timing), timing each
/// run; a span's op id is its script window, so per-op sums are per
/// window. After each run, as the daemon does, time one snapshot capture
/// + encode + atomic write of the replayed state.
fn replay(
    script: &[Vec<ChurnOp>],
    runs: &[Vec<usize>],
    dir: &Path,
    t: &mut Trace,
) -> Result<Replay, String> {
    let cfg = TestbedConfig::parse(CLUSTER).map_err(|e| e.to_string())?;
    let spec = ClusterSpec::of_config(&cfg).map_err(|e| e.to_string())?;
    let mut ctl = SliceController::from_config(&cfg);
    let admit = TestbedConfig::parse(ADMIT).map_err(|e| e.to_string())?;
    let migrate = TestbedConfig::parse(MIGRATE).map_err(|e| e.to_string())?;
    let admit_routes = ctl
        .resolve_routes(&admit.topology, &admit.strategy)
        .map_err(|e| e.to_string())?;
    let migrate_routes = ctl
        .resolve_routes(&migrate.topology, &migrate.strategy)
        .map_err(|e| e.to_string())?;
    let path = dir.join("replay.json");
    let mut configs: BTreeMap<u32, String> = BTreeMap::new();

    let (mut sizes, mut snap_ms) = (Vec::new(), Vec::new());
    for (k, (window, sizes_k)) in script.iter().zip(runs).enumerate() {
        let k = k as u64;
        let mut rest = &window[..];
        for &n in sizes_k {
            let (run, tail) = rest.split_at(n.min(rest.len()));
            rest = tail;
            let ops: Vec<SliceOp> = run
                .iter()
                .map(|&op| match op {
                    ChurnOp::Admit { .. } => SliceOp::Create {
                        name: admit.topology.name().to_string(),
                        topo: admit.topology.clone(),
                        routes: admit_routes.clone(),
                    },
                    ChurnOp::Migrate { id } => SliceOp::Reconfigure {
                        id: SliceId(id),
                        topo: migrate.topology.clone(),
                        routes: migrate_routes.clone(),
                    },
                    ChurnOp::Destroy { id } => SliceOp::Destroy { id: SliceId(id) },
                })
                .collect();
            let results = t.time("tenancy.apply_batch", k, None, || {
                ctl.manager_mut().apply_batch(ops)
            });
            for (&op, r) in run.iter().zip(results) {
                let outcome = r.map_err(|e| format!("replay: {e}"))?;
                match (op, outcome) {
                    (ChurnOp::Admit { expect_id }, OpOutcome::Created(id)) if id.0 == expect_id => {
                        configs.insert(expect_id, ADMIT.to_string())
                    }
                    (ChurnOp::Admit { expect_id }, other) => {
                        return Err(format!("replay admit {expect_id}: {other:?}"))
                    }
                    (ChurnOp::Migrate { id }, _) => configs.insert(id, MIGRATE.to_string()),
                    (ChurnOp::Destroy { id }, _) => configs.remove(&id),
                };
            }
            let t0 = Instant::now();
            let bytes = t.time("sdtd.snapshot", k, None, || -> Result<usize, String> {
                let snap =
                    Snapshot::capture(&spec, cfg.require_deadlock_free, ctl.manager(), &configs)
                        .map_err(|e| e.to_string())?;
                let text = snap.encode();
                write_atomic(&path, &text).map_err(|e| e.to_string())?;
                Ok(text.len())
            })?;
            snap_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            sizes.push(bytes as f64);
        }
    }
    let n = snap_ms.len().max(1) as f64;
    Ok(Replay {
        snapshot_ms: snap_ms.iter().sum::<f64>() / n,
        snapshot_bytes: sizes.iter().copied().fold(0.0, f64::max),
    })
}

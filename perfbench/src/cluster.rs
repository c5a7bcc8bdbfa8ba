//! `cluster`: the discrete-event cluster, in two parts run back to back
//! in every pass.
//!
//! The *sweep* runs six untraced `run_cluster` cells that share one
//! profile key (the full template: 8 tenants, 6 mappers, 384 records, 64
//! keys) and vary only executors, stragglers with speculation, and crash
//! and heartbeat knobs, so `build_profiles` re-runs the same real
//! mappers, reducers and `build_part` in every cell. The *scale* cell has
//! 10,240 executors and an event loop that outweighs its profiles, and
//! reads the blame report users read: `run_cluster_sunk` into a
//! `telemetry::span::Recorder`, then `critpath::analyze` and
//! `Timeline::from_recorder`. That recorder is product output, not the
//! benchmark's tracing. One operation is one simulated job terminated
//! (completed, shed or failed).

use std::time::Instant;

use cluster::{build_profiles, run_cluster, run_cluster_sunk, ClusterConfig, ClusterOutcome};
use telemetry::critpath::{self, Timeline};
use telemetry::{ratio, Recorder};

use crate::bench::{Env, Fnv, Layers, Size, Workload};
use crate::ledger::Ledger;

/// The full template at 512 executors, seeded from the argument.
fn base(env: &Env) -> ClusterConfig {
    let mut c = ClusterConfig::smoke();
    c.executors = 512;
    c.executors_per_node = 8;
    c.du_contexts_per_node = 2;
    c.seed = env.seed;
    c.jobs = env.threads;
    match env.size {
        Size::Full => {
            c.tenants = 8;
            c.job_arrivals = 96;
            c.template_mappers = 6;
            c.template_records = 384;
            c.template_keys = 64;
        }
        Size::Tiny => {
            c.tenants = 2;
            c.job_arrivals = 8;
            c.template_mappers = 2;
            c.template_records = 32;
            c.template_keys = 8;
        }
    }
    c
}

/// Generates each tenant's dataset oracle (`AggConfig::expected_fold`)
/// and checks it accounts for every generated record. Returns a digest
/// of the oracles and whether they were complete.
fn tenant_oracles(cfg: &ClusterConfig, led: &mut Ledger) -> (u64, bool) {
    let mut h = Fnv::default();
    let mut complete = true;
    for t in 0..cfg.tenants {
        let agg = cluster::template(cfg, t).agg;
        let fold = led.time("workloads.gen", || agg.expected_fold());
        let records: u64 = fold.values().map(|&(n, _)| n).sum();
        complete &= records == (agg.mappers * agg.records_per_mapper) as u64;
        for (k, (n, sum)) in fold {
            h.word(k);
            h.word(n);
            h.f64(sum);
        }
    }
    (h.get(), complete)
}

/// Every simulated result of an outcome, folded into `h`.
fn digest_outcome(h: &mut Fnv, o: &ClusterOutcome) {
    for w in [
        o.arrivals,
        o.jobs_completed,
        o.jobs_shed,
        o.jobs_failed,
        o.tasks_launched,
        o.tasks_completed,
        o.stragglers,
        o.spec_launches,
        o.exec_crashes,
        o.recomputes,
        o.fold_checksum,
    ] {
        h.word(w);
    }
    for x in [
        o.makespan_ns,
        o.job_latency_sum_ns,
        o.busy_ns,
        o.wasted_ns,
        o.du_wait_ns,
    ] {
        h.f64(x);
    }
}

/// Every arrival ends completed, shed or failed.
fn terminated(o: &ClusterOutcome) -> bool {
    o.jobs_completed + o.jobs_shed + o.jobs_failed == o.arrivals
}

/// Traced-pass counters shared by both cluster workloads.
#[derive(Default)]
struct SchedCounts {
    jobs: u64,
    tasks: u64,
}

/// `cluster.*` layer metrics: `cluster.run` spans are whole untraced
/// `run_cluster` calls, `cluster.profile` spans the same cells'
/// `build_profiles`; the scheduler is the difference.
fn sched_layers(led: &Ledger, passes: f64, c: &SchedCounts, out: &mut Layers) {
    let profile = led.get("cluster.profile").total_s;
    let run = led.get("cluster.run").total_s;
    let sched = (run - profile).max(0.0);
    out.insert("cluster.profile_s", profile / passes);
    out.insert("cluster.profile_share", ratio(profile, run));
    out.insert("cluster.sched_s", sched / passes);
    out.insert("cluster.sched.jobs_per_s", ratio(c.jobs as f64, sched));
    out.insert("cluster.sched.tasks_per_s", ratio(c.tasks as f64, sched));
}

/// The sweep part's state.
struct ClusterSweep {
    cells: Vec<(&'static str, ClusterConfig)>,
    oracle: u64,
    oracle_ok: bool,
    last: Vec<ClusterOutcome>,
    counts: SchedCounts,
}

impl ClusterSweep {
    /// Builds the six cells and the tenants' dataset oracles.
    fn setup(env: &Env, led: &mut Ledger) -> ClusterSweep {
        let b = base(env);
        let full = env.size == Size::Full;
        let with = |f: &dyn Fn(&mut ClusterConfig)| {
            let mut c = b;
            f(&mut c);
            c
        };
        let spec = |c: &mut ClusterConfig| {
            c.straggler_rate = 0.15;
            c.speculation = true;
        };
        let cells = vec![
            (
                "exec128",
                with(&|c| c.executors = if full { 128 } else { 16 }),
            ),
            (
                "exec512",
                with(&|c| c.executors = if full { 512 } else { 32 }),
            ),
            (
                "exec1024",
                with(&|c| c.executors = if full { 1024 } else { 64 }),
            ),
            ("straggler_spec", with(&spec)),
            (
                "crash_hb50us",
                with(&|c| {
                    spec(c);
                    c.fault.exec_crash_rate = 0.05;
                    c.fault.heartbeat_period_ns = 50_000.0;
                    c.fault.blacklist_threshold = 2;
                }),
            ),
            (
                "crash_hb200us",
                with(&|c| {
                    spec(c);
                    c.fault.exec_crash_rate = 0.05;
                    c.fault.heartbeat_period_ns = 200_000.0;
                }),
            ),
        ];
        let (oracle, oracle_ok) = tenant_oracles(&b, led);
        ClusterSweep {
            cells,
            oracle,
            oracle_ok,
            last: Vec::new(),
            counts: SchedCounts::default(),
        }
    }
}

impl ClusterSweep {
    fn ops_per_pass(&self) -> u64 {
        self.cells.iter().map(|(_, c)| c.job_arrivals as u64).sum()
    }

    fn pass(&mut self, led: &mut Ledger, units: &mut Vec<f64>) -> u64 {
        let mut failed = u64::from(!self.oracle_ok);
        let mut outs = Vec::with_capacity(self.cells.len());
        let mut clean_folds = Vec::new();
        for (_, cfg) in &self.cells {
            if led.is_on() {
                let p = led.time("cluster.profile", || build_profiles(cfg));
                failed += u64::from(p.is_err());
            }
            let t0 = Instant::now();
            let r = led.time("cluster.run", || run_cluster(cfg));
            units.push(t0.elapsed().as_secs_f64());
            match r {
                Ok(o) => {
                    failed += u64::from(!terminated(&o));
                    // Fault-free cells complete every job.
                    if cfg.fault.exec_crash_rate == 0.0 {
                        failed += u64::from(o.jobs_completed != o.arrivals);
                        clean_folds.push(o.fold_checksum);
                    }
                    if led.is_on() {
                        self.counts.jobs += o.arrivals;
                        self.counts.tasks += o.tasks_launched;
                    }
                    outs.push(o);
                }
                Err(e) => {
                    eprintln!("# cluster sweep cell failed: {e}");
                    failed += cfg.job_arrivals as u64;
                }
            }
        }
        // Scheduling never changes an answer: the fault-free cells' fold
        // digests agree.
        failed += clean_folds.iter().filter(|&&f| f != clean_folds[0]).count() as u64;
        self.last = outs;
        failed
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.oracle);
        for o in &self.last {
            digest_outcome(&mut h, o);
        }
        h.get()
    }

    fn info(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .cells
            .iter()
            .map(|(name, c)| {
                format!(
                    "cell {name} executors={} tenants={} arrivals={} template={}x{}x{} \
                     straggler_rate={} speculation={} crash_rate={} heartbeat_ns={} jobs={}",
                    c.executors,
                    c.tenants,
                    c.job_arrivals,
                    c.template_mappers,
                    c.template_records,
                    c.template_keys,
                    c.straggler_rate,
                    c.speculation,
                    c.fault.exec_crash_rate,
                    c.fault.heartbeat_period_ns,
                    c.jobs
                )
            })
            .collect();
        if let Some(o) = self.last.first() {
            lines.push(format!(
                "cell exec128 makespan_ns={} fold={:#x}",
                o.makespan_ns, o.fold_checksum
            ));
        }
        lines
    }
}

/// The scale cell's state.
struct ClusterScale {
    cfg: ClusterConfig,
    oracle: u64,
    oracle_ok: bool,
    last: Option<(ClusterOutcome, f64, usize)>,
    counts: SchedCounts,
    spans: u64,
    /// Host seconds of the traced passes' untraced `run_cluster` calls.
    run_s: f64,
}

impl ClusterScale {
    /// Builds the cell's config and its tenants' dataset oracles.
    fn setup(env: &Env, led: &mut Ledger) -> ClusterScale {
        let mut cfg = ClusterConfig::smoke();
        cfg.seed = env.seed;
        cfg.jobs = env.threads;
        cfg.executors_per_node = 8;
        cfg.straggler_rate = 0.05;
        cfg.speculation = true;
        match env.size {
            Size::Full => {
                cfg.executors = 10_240;
                cfg.job_arrivals = 6_000;
            }
            Size::Tiny => {
                cfg.executors = 256;
                cfg.job_arrivals = 40;
                cfg.tenants = 2;
                cfg.template_mappers = 2;
                cfg.template_records = 32;
            }
        }
        let (oracle, oracle_ok) = tenant_oracles(&cfg, led);
        ClusterScale {
            cfg,
            oracle,
            oracle_ok,
            last: None,
            counts: SchedCounts::default(),
            spans: 0,
            run_s: 0.0,
        }
    }
}

impl ClusterScale {
    fn ops_per_pass(&self) -> u64 {
        self.cfg.job_arrivals as u64
    }

    fn pass(&mut self, led: &mut Ledger, units: &mut Vec<f64>) -> u64 {
        let cfg = &self.cfg;
        let mut failed = u64::from(!self.oracle_ok);
        if led.is_on() {
            // The same cell untraced, and its profiles alone, so the
            // recorder's and the scheduler's costs can be told apart.
            failed += u64::from(led.time("cluster.profile", || build_profiles(cfg)).is_err());
            let t0 = Instant::now();
            match led.time("cluster.run", || run_cluster(cfg)) {
                Ok(o) => {
                    self.counts.jobs += o.arrivals;
                    self.counts.tasks += o.tasks_launched;
                }
                Err(_) => failed += 1,
            }
            self.run_s += t0.elapsed().as_secs_f64();
        }
        let t0 = Instant::now();
        let mut rec = Recorder::new();
        let run = led.time("telemetry.run_sunk", || run_cluster_sunk(cfg, &mut rec));
        let outcome = match run {
            Ok(o) => o,
            Err(e) => {
                eprintln!("# cluster scale cell failed: {e}");
                units.push(t0.elapsed().as_secs_f64());
                return cfg.job_arrivals as u64;
            }
        };
        // `analyze` enforces blame conservation and fails on violation.
        let blame = led.time("telemetry.critpath", || {
            critpath::analyze(&rec, outcome.makespan_ns)
        });
        let timeline = led.time("telemetry.timeline", || Timeline::from_recorder(&rec));
        units.push(t0.elapsed().as_secs_f64());

        failed += u64::from(!terminated(&outcome));
        failed += u64::from(timeline.series.is_empty());
        let critical = match blame {
            Ok(a) => {
                failed += u64::from(a.jobs.len() as u64 != outcome.jobs_completed);
                a.critical_path_ns
            }
            Err(e) => {
                eprintln!("# cluster scale cell blame conservation failed: {e}");
                failed += 1;
                0.0
            }
        };
        if led.is_on() {
            self.spans += rec.spans.len() as u64;
        }
        self.last = Some((outcome, critical, rec.spans.len()));
        failed
    }

    /// `telemetry.*` layer metrics.
    fn telemetry_layers(&self, led: &Ledger, passes: f64, out: &mut Layers) {
        let sunk = led.get("telemetry.run_sunk").total_s;
        out.insert("telemetry.record_s", (sunk - self.run_s) / passes);
        out.insert("telemetry.spans", self.spans as f64 / passes);
        out.insert(
            "telemetry.critpath_s",
            led.get("telemetry.critpath").total_s / passes,
        );
        out.insert(
            "telemetry.timeline_s",
            led.get("telemetry.timeline").total_s / passes,
        );
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.oracle);
        if let Some((o, critical, spans)) = &self.last {
            digest_outcome(&mut h, o);
            h.f64(*critical);
            h.word(*spans as u64);
        }
        h.get()
    }

    fn info(&self) -> Vec<String> {
        let c = &self.cfg;
        let mut lines = vec![format!(
            "cell executors={} nodes={} tenants={} arrivals={} template={}x{}x{} straggler_rate={} \
             speculation={} jobs={}",
            c.executors,
            c.nodes(),
            c.tenants,
            c.job_arrivals,
            c.template_mappers,
            c.template_records,
            c.template_keys,
            c.straggler_rate,
            c.speculation,
            c.jobs
        )];
        if let Some((o, critical, spans)) = &self.last {
            lines.push(format!(
                "outcome completed={} tasks={} makespan_ns={} critical_path_ns={critical} recorder_spans={spans}",
                o.jobs_completed, o.tasks_launched, o.makespan_ns
            ));
        }
        lines
    }
}

/// The `cluster` workload: the sweep, then the scale cell, in every pass.
pub struct Cluster {
    sweep: ClusterSweep,
    scale: ClusterScale,
}

impl Cluster {
    /// Builds both parts' configs and their tenants' dataset oracles.
    pub fn setup(env: &Env, led: &mut Ledger) -> Cluster {
        Cluster {
            sweep: ClusterSweep::setup(env, led),
            scale: ClusterScale::setup(env, led),
        }
    }
}

impl Workload for Cluster {
    fn ops_per_pass(&self) -> u64 {
        self.sweep.ops_per_pass() + self.scale.ops_per_pass()
    }

    fn pass(&mut self, led: &mut Ledger, units: &mut Vec<f64>) -> u64 {
        self.sweep.pass(led, units) + self.scale.pass(led, units)
    }

    /// Both parts' `cluster.*` spans share names, so the profile and
    /// scheduler metrics cover the whole pass; `telemetry.*` is the scale
    /// cell's.
    fn layers(&self, led: &Ledger, passes: f64, out: &mut Layers) {
        let counts = SchedCounts {
            jobs: self.sweep.counts.jobs + self.scale.counts.jobs,
            tasks: self.sweep.counts.tasks + self.scale.counts.tasks,
        };
        sched_layers(led, passes, &counts, out);
        self.scale.telemetry_layers(led, passes, out);
    }

    /// The two parts' digests, in order.
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.sweep.digest());
        h.word(self.scale.digest());
        h.get()
    }

    fn info(&self) -> Vec<String> {
        let sweep = self.sweep.info().into_iter().map(|l| format!("sweep {l}"));
        let scale = self.scale.info().into_iter().map(|l| format!("scale {l}"));
        sweep.chain(scale).collect()
    }
}

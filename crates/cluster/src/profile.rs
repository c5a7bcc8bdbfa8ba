//! Job profiles: each tenant's template executed for real, once per
//! process per `ProfileKey`.
//!
//! The scheduler needs per-task service times, inter-task transfer
//! sizes, and per-task answers. Rather than inventing synthetic
//! numbers, every tenant's template runs through the *actual*
//! executors — [`shuffle::run_mapper`]/[`shuffle::run_reducer`] for
//! shuffle jobs, [`store::build_part`] for cached-RDD jobs — and the
//! measurements become the profile that every job instance of that
//! tenant replays under contention. Task outputs (per-reduce-task and
//! per-partition folds) ride along, so a job's answer can be
//! re-assembled from whichever attempts win and checked against the
//! profile digest.
//!
//! A profile is a pure function of the few config fields gathered in
//! `ProfileKey`: the seed, the tenant count, the template size and, when
//! DU failures can fire, the fallback backend. Executor counts, fabric,
//! stragglers, speculation and the fault-recovery knobs only change how
//! the scheduler replays it. [`build_profiles`] therefore memoizes per
//! process on that key, so a sweep over scheduling knobs executes the
//! real work once, not once per cell.
//!
//! Builds fan out over [`store::par_map`] (per-task results are pure
//! functions of the template), so `--jobs` changes wall-clock only.

use crate::job::{JobKind, TenantTemplate};
use crate::{ClusterConfig, ClusterError, ClusterFaultConfig};
use shuffle::{fold_checksum, run_mapper, Message, ShuffleConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, LazyLock, Mutex};
use store::{build_part, par_map, Backend, MissPolicy, RddConfig};

/// Exactly the configuration a tenant profile depends on.
///
/// [`ProfileKey::new`] destructures [`ClusterConfig`] and
/// [`ClusterFaultConfig`] without `..`, so a new config field does not
/// compile until it is either bound here or named as one that cannot
/// change a profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ProfileKey {
    pub(crate) seed: u64,
    pub(crate) tenants: usize,
    pub(crate) template_mappers: usize,
    pub(crate) template_records: usize,
    pub(crate) template_keys: u64,
    /// The software backend Cereal tenants profile a fallback decode
    /// under: `Some` only when DU device failures can fire and the
    /// fallback is not Cereal itself.
    fallback: Option<Backend>,
}

impl ProfileKey {
    pub(crate) fn new(cfg: &ClusterConfig) -> ProfileKey {
        let ClusterConfig {
            seed,
            tenants,
            template_mappers,
            template_records,
            template_keys,
            fault,
            // Cluster shape and fabric: the resources a replay contends
            // for, charged on the event clock.
            executors: _,
            executors_per_node: _,
            du_contexts_per_node: _,
            link: _,
            // The arrival process: which tenant's profile is replayed
            // when, never what a job does.
            tenant_theta: _,
            job_arrivals: _,
            target_load: _,
            // Straggler inflation and speculative copies scale or repeat
            // profiled services at replay time.
            straggler_rate: _,
            straggler_factor: _,
            speculation: _,
            spec_quantile: _,
            spec_multiplier: _,
            // Worker threads: per-task results are pure functions of the
            // template.
            jobs: _,
            // Gauge sampling of a traced replay.
            timeline_bucket_ns: _,
        } = *cfg;
        let ClusterFaultConfig {
            du_fail_rate,
            fallback,
            // Crash, failure and recovery knobs kill, retry, delay or
            // shed replays of a profile; none re-executes the template.
            exec_crash_rate: _,
            node_fail_rate: _,
            task_fail_rate: _,
            heartbeat_period_ns: _,
            heartbeat_misses: _,
            restart_ns: _,
            blacklist_threshold: _,
            blacklist_cooldown_ns: _,
            job_retry_budget: _,
            retry_backoff_ns: _,
            shed_queue_depth: _,
        } = fault;
        ProfileKey {
            seed,
            tenants,
            template_mappers,
            template_records,
            template_keys,
            fallback: (du_fail_rate > 0.0 && fallback != Backend::Cereal).then_some(fallback),
        }
    }

    /// The backend this tenant profiles a software-fallback decode
    /// under: only tenants that decode on the DU (Cereal backend) need
    /// one, and only when the key carries a fallback.
    fn fallback_for(&self, t: &TenantTemplate) -> Option<Backend> {
        self.fallback.filter(|_| t.backend == Backend::Cereal)
    }
}

/// A per-key `(count, sum)` aggregate.
pub type Fold = BTreeMap<u64, (u64, f64)>;

/// One profiled map task.
#[derive(Clone, Debug, PartialEq)]
pub struct MapTask {
    /// Simulated service time (build + shuffle + serialize, the
    /// mapper's full clock).
    pub service_ns: f64,
    /// Fraction of the service spent serializing (engine busy time /
    /// full clock, capped at 1: the accelerator's units serialize in
    /// parallel, so their summed busy time can exceed the mapper's
    /// wall window) — the blame attribution splits the compute window
    /// with it.
    pub ser_frac: f64,
}

/// One profiled reduce task.
#[derive(Clone, Debug, PartialEq)]
pub struct ReduceTask {
    /// Inputs in deterministic `(mapper, seq)` order: which map task
    /// produced the batch, and its wire size.
    pub inputs: Vec<(usize, u64)>,
    /// Simulated decode service time (summed over inputs).
    pub service_ns: f64,
    /// Decode service under the configured software fallback backend —
    /// what a DU-failed node pays for this task (PR 4 degrade
    /// semantics: the fallback engine produces and decodes the batch,
    /// the fold is bit-identical). Equals `service_ns` when fallback
    /// profiling is off.
    pub fallback_ns: f64,
    /// The task's fold over its key range.
    pub fold: Fold,
}

/// One profiled cached partition.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanPart {
    /// Serialized block size (what a remote scan fetches).
    pub bytes: u64,
    /// Materialization service (graph build + GC pressure +
    /// serialization — the lineage cost).
    pub materialize_ns: f64,
    /// Per-pass read service (deserialize, or validate-only for the
    /// zero-copy backend).
    pub read_ns: f64,
    /// Per-pass read service under the configured software fallback
    /// backend — what a DU-failed node pays. Equals `read_ns` when
    /// fallback profiling is off.
    pub fallback_read_ns: f64,
    /// Fraction of the materialize service spent serializing.
    pub ser_frac: f64,
    /// Fraction of the materialize service spent in GC pressure (the
    /// rest of the lineage cost; `ser_frac + gc_frac <= 1`).
    pub gc_frac: f64,
    /// The partition's fold.
    pub fold: Fold,
}

/// A tenant job's task graph.
#[derive(Clone, Debug, PartialEq)]
pub enum JobShape {
    /// Map wave then reduce wave.
    Shuffle {
        /// Profiled map tasks.
        maps: Vec<MapTask>,
        /// Profiled reduce tasks.
        reduces: Vec<ReduceTask>,
    },
    /// Materialize wave then `passes` scan waves.
    Scan {
        /// Profiled partitions.
        parts: Vec<ScanPart>,
        /// Scan stages after materialization.
        passes: usize,
    },
}

/// One tenant's complete job profile.
#[derive(Clone, Debug, PartialEq)]
pub struct JobProfile {
    /// The template this profile measures.
    pub template: TenantTemplate,
    /// The task graph with per-task measurements.
    pub shape: JobShape,
    /// FNV-1a digest of the job's merged fold — what every completed
    /// job instance must reproduce from its winning attempts.
    pub fold_checksum: u64,
    /// Tasks per job instance.
    pub tasks: u64,
    /// Summed nominal task service per job instance.
    pub total_service_ns: f64,
}

impl JobProfile {
    /// Stages per job instance.
    pub fn stages(&self) -> usize {
        match &self.shape {
            JobShape::Shuffle { .. } => 2,
            JobShape::Scan { passes, .. } => 1 + passes,
        }
    }

    /// Tasks in stage `s`.
    pub fn stage_tasks(&self, s: usize) -> usize {
        match &self.shape {
            JobShape::Shuffle { maps, reduces } => {
                if s == 0 {
                    maps.len()
                } else {
                    reduces.len()
                }
            }
            JobShape::Scan { parts, .. } => parts.len(),
        }
    }

    /// Nominal service of task `t` in stage `s`.
    pub fn service_ns(&self, s: usize, t: usize) -> f64 {
        match &self.shape {
            JobShape::Shuffle { maps, reduces } => {
                if s == 0 {
                    maps[t].service_ns
                } else {
                    reduces[t].service_ns
                }
            }
            JobShape::Scan { parts, .. } => {
                if s == 0 {
                    parts[t].materialize_ns
                } else {
                    parts[t].read_ns
                }
            }
        }
    }

    /// Nominal service of task `t` in stage `s` on a DU-failed node:
    /// decode stages pay the profiled software-fallback service,
    /// non-decode stages are unaffected.
    pub fn fallback_service_ns(&self, s: usize, t: usize) -> f64 {
        if !self.stage_decodes(s) {
            return self.service_ns(s, t);
        }
        match &self.shape {
            JobShape::Shuffle { reduces, .. } => reduces[t].fallback_ns,
            JobShape::Scan { parts, .. } => parts[t].fallback_read_ns,
        }
    }

    /// Whether stage `s` tasks decode serialized data (and so need a DU
    /// context under the Cereal backend).
    pub fn stage_decodes(&self, s: usize) -> bool {
        s > 0
    }

    /// Blame-category fractions `(ser, de, gc)` of task `t`'s service
    /// window in stage `s`, measured during profiling. Decode stages
    /// are pure deserialization; map/materialize stages split between
    /// serialization, GC pressure, and (the remainder) compute.
    pub fn components(&self, s: usize, t: usize) -> (f64, f64, f64) {
        match &self.shape {
            JobShape::Shuffle { maps, .. } => {
                if s == 0 {
                    (maps[t].ser_frac, 0.0, 0.0)
                } else {
                    (0.0, 1.0, 0.0)
                }
            }
            JobShape::Scan { parts, .. } => {
                if s == 0 {
                    (parts[t].ser_frac, 0.0, parts[t].gc_frac)
                } else {
                    (0.0, 1.0, 0.0)
                }
            }
        }
    }
}

/// The shuffle configuration a tenant template profiles under:
/// fault-free, spill-free, square (reducers = mappers), single-threaded
/// per task.
fn shuffle_cfg(t: &TenantTemplate) -> ShuffleConfig {
    ShuffleConfig {
        mappers: t.agg.mappers,
        reducers: t.agg.mappers,
        records_per_mapper: t.agg.records_per_mapper,
        distinct_keys: t.agg.distinct_keys,
        seed: t.agg.seed,
        skew: t.agg.skew,
        flush_bytes: 4 << 10,
        watermark_bytes: 1 << 30,
        spill_bytes: 0,
        link: sim::LinkConfig::ten_gbe(),
        link_name: "10GbE",
        gc_pressure: false,
        gc_waves: 1,
        jobs: 1,
        checksum: false,
        faults: None,
    }
}

fn profile_shuffle(
    key: &ProfileKey,
    jobs: usize,
    t: &TenantTemplate,
) -> Result<JobProfile, ClusterError> {
    let sc = shuffle_cfg(t);
    let outs = par_map(jobs, sc.mappers, |m| run_mapper(&sc, t.backend, m));
    let mut maps = Vec::with_capacity(sc.mappers);
    let mut all_msgs: Vec<Message> = Vec::new();
    for out in outs {
        let out = out?;
        let ser_frac =
            if out.clock_ns > 0.0 { (out.ser_busy_ns / out.clock_ns).min(1.0) } else { 0.0 };
        maps.push(MapTask { service_ns: out.clock_ns, ser_frac });
        all_msgs.extend(out.messages);
    }
    let reg = sc.agg().registry();
    let cap = sc.agg().heap_capacity();
    let reduces_res = par_map(jobs, sc.reducers, |r| {
        let mut msgs: Vec<&Message> = all_msgs.iter().filter(|m| m.dst == r).collect();
        msgs.sort_by_key(|m| (m.src, m.seq));
        let out = shuffle::run_reducer(t.backend, &reg, cap, &msgs, &[], false)?;
        Ok::<ReduceTask, ClusterError>(ReduceTask {
            inputs: msgs.iter().map(|m| (m.src, m.bytes.len() as u64)).collect(),
            service_ns: out.de_busy_ns,
            fallback_ns: out.de_busy_ns,
            fold: out.fold,
        })
    });
    let mut reduces = Vec::with_capacity(sc.reducers);
    for r in reduces_res {
        reduces.push(r?);
    }
    if let Some(fb) = key.fallback_for(t) {
        // A DU-failed node degrades end-to-end to the software fallback
        // format (PR 4 semantics): profile the fallback decode by
        // re-running the template under that backend and demand the
        // per-task folds stay bit-identical — degradation moves time,
        // never answers.
        let fb_outs = par_map(jobs, sc.mappers, |m| run_mapper(&sc, fb, m));
        let mut fb_msgs: Vec<Message> = Vec::new();
        for out in fb_outs {
            fb_msgs.extend(out?.messages);
        }
        let fb_res = par_map(jobs, sc.reducers, |r| {
            let mut msgs: Vec<&Message> = fb_msgs.iter().filter(|m| m.dst == r).collect();
            msgs.sort_by_key(|m| (m.src, m.seq));
            let out = shuffle::run_reducer(fb, &reg, cap, &msgs, &[], false)?;
            Ok::<(f64, Fold), ClusterError>((out.de_busy_ns, out.fold))
        });
        for (r, fbr) in reduces.iter_mut().zip(fb_res) {
            let (fallback_ns, fold) = fbr?;
            if fold != r.fold {
                return Err(ClusterError::ProfileFoldMismatch { tenant: t.tenant });
            }
            r.fallback_ns = fallback_ns;
        }
    }
    // Reducers own disjoint key ranges (key % reducers), so merging in
    // reducer order reproduces the expected aggregate bit for bit.
    let mut merged: Fold = Fold::new();
    for r in &reduces {
        for (&k, &(c, s)) in &r.fold {
            let e = merged.entry(k).or_insert((0, 0.0));
            e.0 += c;
            e.1 += s;
        }
    }
    if merged != sc.agg().expected_fold() {
        return Err(ClusterError::ProfileFoldMismatch { tenant: t.tenant });
    }
    let digest = fold_checksum(&merged);
    let total: f64 = maps.iter().map(|m| m.service_ns).sum::<f64>()
        + reduces.iter().map(|r| r.service_ns).sum::<f64>();
    let tasks = (maps.len() + reduces.len()) as u64;
    Ok(JobProfile {
        template: *t,
        shape: JobShape::Shuffle { maps, reduces },
        fold_checksum: digest,
        tasks,
        total_service_ns: total,
    })
}

fn profile_scan(key: &ProfileKey, jobs: usize, t: &TenantTemplate, passes: usize) -> JobProfile {
    let rc = RddConfig {
        agg: t.agg,
        backend: t.backend,
        memory_fraction: 1.0,
        passes: 0,
        policy: MissPolicy::Fetch,
        disk: sim::DiskConfig::ssd(),
        access: store::AccessPattern::Scan,
        jobs: 1,
        checksum: false,
        fault: None,
    };
    let fb = key.fallback_for(t);
    let parts: Vec<ScanPart> = par_map(jobs, t.agg.mappers, |m| {
        // `build_part` runs the real materialize + re-read cycle and
        // asserts the reconstructed fold matches the source data.
        let p = build_part(&rc, m);
        // A DU-failed node re-materializes and reads its blocks in the
        // software fallback format (PR 4 semantics): profile that read
        // cost too, and demand the fold stays bit-identical.
        let fallback_read_ns = match fb {
            Some(b) => {
                let fp = build_part(&RddConfig { backend: b, ..rc }, m);
                assert_eq!(
                    fp.fold, p.fold,
                    "fallback backend changed a partition fold"
                );
                fp.de_ns
            }
            None => p.de_ns,
        };
        // The lineage cost is exactly GC pressure + serialization
        // (`PartBuild::recompute_ns`), so the two fractions partition
        // the materialize window.
        let ser_frac =
            if p.recompute_ns > 0.0 { (p.ser_ns / p.recompute_ns).min(1.0) } else { 0.0 };
        ScanPart {
            bytes: p.bytes.len() as u64,
            materialize_ns: p.recompute_ns,
            read_ns: p.de_ns,
            fallback_read_ns,
            ser_frac,
            gc_frac: if p.recompute_ns > 0.0 { 1.0 - ser_frac } else { 0.0 },
            fold: p.fold,
        }
    });
    // Partitions share keys, so the merge order (partition order) is
    // part of the digest's definition — the scheduler re-merges winning
    // attempts in the same order.
    let mut merged: Fold = Fold::new();
    for p in &parts {
        for (&k, &(c, s)) in &p.fold {
            let e = merged.entry(k).or_insert((0, 0.0));
            e.0 += c;
            e.1 += s;
        }
    }
    let digest = fold_checksum(&merged);
    let total: f64 = parts
        .iter()
        .map(|p| p.materialize_ns + passes as f64 * p.read_ns)
        .sum();
    let tasks = (parts.len() * (1 + passes)) as u64;
    JobProfile {
        template: *t,
        shape: JobShape::Scan { parts, passes },
        fold_checksum: digest,
        tasks,
        total_service_ns: total,
    }
}

/// Every tenant's profile under `cfg`, built at most once per process
/// per profile key and shared: later calls with the same key — any
/// executor count, straggler, speculation, fault-recovery or `jobs`
/// setting — return the same `Arc`. Within a tenant, task builds fan out
/// over `cfg.jobs` worker threads; results are independent of the
/// thread count.
///
/// Only successful builds are kept, so an error is rebuilt and reported
/// on every call. The memo is looked up under its lock and built outside
/// it: callers with different keys build in parallel, and two racing
/// callers with one key both build and share whichever result lands
/// first (the two are equal).
///
/// # Errors
/// Propagates executor errors and profile fold mismatches.
pub fn build_profiles(cfg: &ClusterConfig) -> Result<Arc<[JobProfile]>, ClusterError> {
    static MEMO: LazyLock<Mutex<HashMap<ProfileKey, Arc<[JobProfile]>>>> =
        LazyLock::new(Default::default);
    let memo = || MEMO.lock().expect("a thread panicked holding the profile memo");
    let key = ProfileKey::new(cfg);
    if let Some(hit) = memo().get(&key) {
        return Ok(Arc::clone(hit));
    }
    let built: Arc<[JobProfile]> = build(&key, cfg.jobs)?.into();
    Ok(Arc::clone(memo().entry(key).or_insert(built)))
}

/// Builds every tenant's profile for `key`, uncached, on `jobs` worker
/// threads.
fn build(key: &ProfileKey, jobs: usize) -> Result<Vec<JobProfile>, ClusterError> {
    (0..key.tenants)
        .map(|i| {
            let t = key.template(i);
            match t.kind {
                JobKind::Shuffle => profile_shuffle(key, jobs, &t),
                JobKind::Scan { passes } => Ok(profile_scan(key, jobs, &t, passes)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_deterministic_across_thread_counts() {
        let mut cfg = ClusterConfig::smoke();
        cfg.tenants = 2;
        let key = ProfileKey::new(&cfg);
        let a = build(&key, 1).expect("profiles build");
        let b = build(&key, 4).expect("profiles build");
        assert_eq!(a, b);
    }

    #[test]
    fn profile_key_misses_on_every_profile_input_and_hits_on_the_rest() {
        let mut base = ClusterConfig::smoke();
        base.tenants = 2;
        let first = build_profiles(&base).expect("profiles build");
        let with = |f: &dyn Fn(&mut ClusterConfig)| {
            let mut c = base;
            f(&mut c);
            c
        };
        let misses = [
            ("seed", with(&|c| c.seed ^= 1)),
            ("tenants", with(&|c| c.tenants += 1)),
            ("template_mappers", with(&|c| c.template_mappers += 1)),
            ("template_records", with(&|c| c.template_records += 8)),
            ("template_keys", with(&|c| c.template_keys += 1)),
            (
                "du_fail_rate with a Kryo fallback",
                with(&|c| {
                    c.fault.du_fail_rate = 0.25;
                    c.fault.fallback = Backend::Kryo;
                }),
            ),
        ];
        for (field, cfg) in &misses {
            assert_ne!(ProfileKey::new(cfg), ProfileKey::new(&base), "{field}");
            let p = build_profiles(cfg).expect("profiles build");
            assert!(!Arc::ptr_eq(&p, &first), "{field} must miss the memo");
            assert_ne!(*p, *first, "{field} changes the profiles");
        }
        let hits = [
            ("executors", with(&|c| c.executors *= 4)),
            ("straggler_rate", with(&|c| c.straggler_rate = 0.2)),
            ("speculation", with(&|c| c.speculation = true)),
            ("exec_crash_rate", with(&|c| c.fault.exec_crash_rate = 0.05)),
            ("heartbeat_period_ns", with(&|c| c.fault.heartbeat_period_ns *= 2.0)),
            ("jobs", with(&|c| c.jobs = 4)),
            (
                "du_fail_rate with a Cereal fallback",
                with(&|c| {
                    c.fault.du_fail_rate = 0.25;
                    c.fault.fallback = Backend::Cereal;
                }),
            ),
        ];
        for (field, cfg) in &hits {
            let p = build_profiles(cfg).expect("profiles build");
            assert!(Arc::ptr_eq(&p, &first), "{field} must hit the memo");
            let fresh = build(&ProfileKey::new(cfg), cfg.jobs).expect("profiles build");
            assert_eq!(*p, fresh[..], "a {field} hit equals a fresh build");
        }
    }

    #[test]
    fn shuffle_profile_carries_inputs_and_positive_services() {
        let mut cfg = ClusterConfig::smoke();
        cfg.tenants = 1;
        let p = &build_profiles(&cfg).expect("profiles build")[0];
        let JobShape::Shuffle { maps, reduces } = &p.shape else {
            panic!("tenant 0 is a shuffle template");
        };
        assert_eq!(maps.len(), cfg.template_mappers);
        assert_eq!(reduces.len(), cfg.template_mappers);
        assert!(maps.iter().all(|m| m.service_ns > 0.0));
        for r in reduces {
            assert!(!r.inputs.is_empty(), "every reducer receives batches");
            assert!(r.inputs.iter().all(|&(src, b)| src < maps.len() && b > 0));
        }
    }
}

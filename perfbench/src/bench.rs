//! Workload-independent machinery: pass counts, medians, metric tables,
//! digests and provenance.

use std::collections::BTreeMap;

use crate::ledger::Ledger;

/// The seed whose simulated-result digests are stored in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Input generation is repeated at least this many times, and until
/// [`SETUP_MIN_S`] have passed (at most [`SETUP_MAX_REPS`] times), in
/// slices spread over the run; `setup_s` is the median repetition.
/// Sub-millisecond set-ups get thousands of samples.
pub const SETUP_REPS: usize = 5;
/// See [`SETUP_REPS`].
pub const SETUP_MIN_S: f64 = 1.0;
/// See [`SETUP_REPS`].
pub const SETUP_MAX_REPS: usize = 5000;

/// Fewest cold passes of an untraced run, and fewest rounds (one
/// untraced and one traced pass each) of a traced run.
pub const MIN_PASSES: usize = 3;
/// See [`MIN_PASSES`].
pub const MIN_TRACED_ROUNDS: usize = 2;

/// The fixed number of cold passes a run of `seconds` makes for a
/// workload whose pass process takes `nominal_s` on the reference host.
/// The count depends on the arguments alone, never on how fast the code
/// runs, so every revision takes its minimum over as many samples.
pub fn pass_count(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).round() as usize).max(MIN_PASSES)
}

/// Input sizes: the benchmark's own, or a tiny set for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark reports.
    Full,
    /// Seconds-scale smoke sizes.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What every workload is built from.
#[derive(Clone, Copy, Debug)]
pub struct Env {
    /// The `--seed` argument.
    pub seed: u64,
    /// Input sizes.
    pub size: Size,
    /// Worker threads the workload may use (`ClusterConfig::jobs`).
    pub threads: usize,
}

/// Per-layer metric names and units, in report order. Every traced run
/// prints all of them; a layer a workload never calls reads 0 and is
/// named on the run's `# layers_not_called` line.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("serializers.ser_s", "s"),
    ("serializers.de_s", "s"),
    ("serializers.ops", "count"),
    ("sim.cpu.s", "s"),
    ("sim.cpu.mops_per_s", "Mop/s"),
    ("heap.alloc_s", "s"),
    ("core.ser_s", "s"),
    ("core.de_s", "s"),
    ("core.sim_ns_per_host_ns", "ratio"),
    ("format.encode_s", "s"),
    ("format.decode_s", "s"),
    ("serializers.java.ser_mb_per_s", "MB/s"),
    ("serializers.java.de_mb_per_s", "MB/s"),
    ("serializers.kryo.ser_mb_per_s", "MB/s"),
    ("serializers.kryo.de_mb_per_s", "MB/s"),
    ("serializers.skyway.ser_mb_per_s", "MB/s"),
    ("serializers.skyway.de_mb_per_s", "MB/s"),
    ("serializers.jsonlike.ser_mb_per_s", "MB/s"),
    ("serializers.jsonlike.de_mb_per_s", "MB/s"),
    ("serializers.protolike.ser_mb_per_s", "MB/s"),
    ("serializers.protolike.de_mb_per_s", "MB/s"),
    ("serializers.archive.ser_mb_per_s", "MB/s"),
    ("serializers.archive.de_mb_per_s", "MB/s"),
    ("serializers.archive.view_mb_per_s", "MB/s"),
    ("format.cereal.encode_mb_per_s", "MB/s"),
    ("format.cereal.decode_mb_per_s", "MB/s"),
    ("format.frame.mb_per_s", "MB/s"),
    ("cluster.profile_s", "s"),
    ("cluster.profile_share", "ratio"),
    ("cluster.sched_s", "s"),
    ("cluster.sched.jobs_per_s", "1/s"),
    ("cluster.sched.tasks_per_s", "1/s"),
    ("telemetry.record_s", "s"),
    ("telemetry.spans", "count"),
    ("telemetry.critpath_s", "s"),
    ("telemetry.timeline_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("error_rate", "ratio"),
];

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload: inputs already generated, ready to run passes.
pub trait Workload {
    /// Operations one pass completes.
    fn ops_per_pass(&self) -> u64;

    /// Runs one pass over the fixed operation list. Pushes the host
    /// seconds of each measured unit onto `units`, in the same order every
    /// pass, and returns the number of failed output checks. With `led`
    /// on, the pass also wraps its calls into each layer in spans.
    fn pass(&mut self, led: &mut Ledger, units: &mut Vec<f64>) -> u64;

    /// Output checks too costly to repeat in every pass. The parent runs
    /// them once per run, on inputs it sets up itself, and adds the
    /// returned failures to the run's. Passes are deterministic, and every
    /// pass's digest must equal the first's, so once per run covers all.
    fn once_checks(&mut self) -> u64 {
        0
    }

    /// Fills the per-layer metrics of the layers it calls from `passes`
    /// traced passes in `led`.
    fn layers(&self, led: &Ledger, passes: f64, out: &mut Layers);

    /// Digest of every simulated (or encoded) result of the last pass.
    fn digest(&self) -> u64;

    /// Informational lines: input sizes, seed handling, fidelity.
    fn info(&self) -> Vec<String>;
}

/// Median of `xs` (mean of the middle two for even lengths).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Estimated seconds of one pass: the sum over units of each unit's
/// median time across passes. Every pass runs cold, in a process of its
/// own. Host speed on a shared machine drifts by a fifth or more over
/// seconds to minutes, alike for every unit; a unit's median follows the
/// run's typical speed, while its minimum depends on whether the run
/// happened to catch a quiet moment, and spreads more from run to run.
///
/// # Panics
/// Panics if passes disagree on their unit count.
pub fn pass_seconds(passes: &[Vec<f64>]) -> f64 {
    let n = passes[0].len();
    assert!(
        passes.iter().all(|p| p.len() == n),
        "passes differ in units"
    );
    (0..n)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

/// FNV-1a, the digest every stored check uses.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an `f64` in by its bits.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// The stored digest of `workload` at the default seed, if any.
pub fn stored_digest(workload: &str) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let mut it = line.split_whitespace();
        (it.next() == Some(workload))
            .then(|| u64::from_str_radix(it.next()?, 16).ok())
            .flatten()
    })
}

/// Peak resident memory of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The source revision, read offline from `.git` under the working
/// directory; `"unknown"` outside a git checkout.
pub fn source_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Megabytes per second of `bytes` moved in `seconds`.
pub fn mb_per_s(bytes: f64, seconds: f64) -> f64 {
    telemetry::ratio(bytes / 1e6, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_pass_estimates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Unit 0 has one contended pass; its median ignores it.
        let passes = vec![vec![1.0, 10.0], vec![9.0, 10.0], vec![1.5, 11.0]];
        assert_eq!(pass_seconds(&passes), 11.5);
        assert_eq!(pass_count(25.0, 5.0), 5);
        assert_eq!(pass_count(25.0, 30.0), MIN_PASSES);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.get(), b.get());
    }
}

//! Host-clock benchmark of the Cereal reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_eval|serde_lib|cluster> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed (at least five times,
//! and for at least a second, spread over the run; `setup_s` is the
//! median), and runs a fixed number of closed-batch passes over a fixed
//! operation list, the number set by `--seconds` and the workload. Every pass runs cold in a
//! fresh child process of this binary (the hidden `--one-pass` flag), one
//! at a time, so each pays the first-use costs a command-line user pays.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced passes with passes whose calls into each layer are wrapped in
//! host-clock spans, and reports the per-layer metrics, each span's self
//! time, and a Chrome trace. The last line of standard output is one JSON
//! object with the results.

mod bench;
mod cluster;
mod ledger;
mod paper_eval;
mod serde_lib;
mod shapes;

use std::collections::BTreeMap;
use std::time::Instant;

use bench::{Env, Layers, Size, Workload};
use ledger::{LayerTotal, Ledger};

/// The workloads, in report order, each with the host seconds one pass
/// process (set-up, pass and checks) takes on the reference host: a
/// 2-vCPU Xeon VM at 2.1 GHz. `--seconds` divided by it is the pass count.
const WORKLOADS: [(&str, f64); 3] = [
    ("paper_eval", 5.0),
    ("serde_lib", 2.2),
    ("cluster", 4.0),
];

fn setup(name: &str, env: &Env, led: &mut Ledger) -> Box<dyn Workload> {
    match name {
        "paper_eval" => Box::new(paper_eval::PaperEval::setup(env, led)),
        "serde_lib" => Box::new(serde_lib::SerdeLib::setup(env, led)),
        "cluster" => Box::new(cluster::Cluster::setup(env, led)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// What one cold pass process measured.
#[derive(Debug, Default)]
struct PassResult {
    /// Host seconds of each measured unit, in pass order.
    units: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Digest of every simulated (or encoded) result of the pass.
    digest: u64,
    /// Peak resident memory of the pass process, MB.
    rss_mb: f64,
    /// The workload's informational lines.
    info: Vec<String>,
    /// Per-layer metrics of the layers the workload calls (traced only).
    layers: BTreeMap<String, f64>,
    /// Every span name's totals (traced only).
    spans: BTreeMap<String, LayerTotal>,
    /// Root spans' total, seconds (traced only).
    traced_total_s: f64,
    /// The spans as a Chrome trace (traced only, in process).
    chrome: Option<String>,
}

impl PassResult {
    /// Summed self time of every span.
    fn self_sum_s(&self) -> f64 {
        self.spans.values().map(|t| t.self_s).sum()
    }

    /// The line protocol a pass process prints to its parent.
    fn encode(&self) -> String {
        let mut out = String::new();
        let units: Vec<String> = self.units.iter().map(f64::to_string).collect();
        out += &format!("pass.units {}\n", units.join(" "));
        out += &format!(
            "pass.attempted {}\npass.failed {}\n",
            self.attempted, self.failed
        );
        out += &format!(
            "pass.digest {:016x}\npass.rss_mb {}\n",
            self.digest, self.rss_mb
        );
        out += &format!("pass.traced_total_s {}\n", self.traced_total_s);
        for line in &self.info {
            out += &format!("pass.info {line}\n");
        }
        for (name, v) in &self.layers {
            out += &format!("pass.layer {name} {v}\n");
        }
        for (name, t) in &self.spans {
            out += &format!("pass.span {name} {} {} {}\n", t.total_s, t.self_s, t.calls);
        }
        out
    }

    /// Parses [`PassResult::encode`]'s lines; other lines are ignored.
    fn decode(text: &str) -> Result<PassResult, String> {
        fn num<T: std::str::FromStr>(s: Option<&str>) -> Result<T, String> {
            let s = s.ok_or("missing field")?;
            s.parse().map_err(|_| format!("bad number {s:?}"))
        }
        let mut r = PassResult::default();
        let mut seen_units = false;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut it = rest.split_whitespace();
            match key {
                "pass.units" => {
                    seen_units = true;
                    r.units = it.map(|x| num(Some(x))).collect::<Result<_, _>>()?;
                }
                "pass.attempted" => r.attempted = num(it.next())?,
                "pass.failed" => r.failed = num(it.next())?,
                "pass.digest" => {
                    r.digest = u64::from_str_radix(it.next().unwrap_or(""), 16)
                        .map_err(|e| format!("digest: {e}"))?;
                }
                "pass.rss_mb" => r.rss_mb = num(it.next())?,
                "pass.traced_total_s" => r.traced_total_s = num(it.next())?,
                "pass.info" => r.info.push(rest.to_string()),
                "pass.layer" => {
                    let name = it.next().ok_or("layer name")?.to_string();
                    r.layers.insert(name, num(it.next())?);
                }
                "pass.span" => {
                    let name = it.next().ok_or("span name")?.to_string();
                    let t = LayerTotal {
                        total_s: num(it.next())?,
                        self_s: num(it.next())?,
                        calls: num(it.next())?,
                    };
                    r.spans.insert(name, t);
                }
                _ => {}
            }
        }
        if !seen_units {
            return Err("no pass result".to_string());
        }
        Ok(r)
    }
}

/// Sets up once and runs one pass in this process; with `trace`, both
/// inside spans, and the per-layer metrics come from that one pass.
fn one_pass(name: &str, env: &Env, trace: bool) -> PassResult {
    let mut led = if trace {
        Ledger::on(name)
    } else {
        Ledger::off()
    };
    led.begin("bench.setup");
    let mut w = setup(name, env, &mut led);
    led.end();
    let mut r = PassResult {
        attempted: w.ops_per_pass(),
        ..PassResult::default()
    };
    led.begin("bench.pass");
    r.failed = w.pass(&mut led, &mut r.units);
    led.end();
    r.rss_mb = bench::peak_rss_mb().unwrap_or(0.0);
    r.digest = w.digest();
    r.info = w.info();
    if trace {
        let mut layers = Layers::new();
        layers.insert("workloads.gen_s", led.get("workloads.gen").total_s);
        w.layers(&led, 1.0, &mut layers);
        r.layers = layers
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        r.spans = led
            .totals()
            .iter()
            .map(|(k, t)| (k.to_string(), *t))
            .collect();
        r.traced_total_s = led.get("bench.setup").total_s + led.get("bench.pass").total_s;
        r.chrome = Some(led.chrome_trace());
    }
    r
}

/// Runs one pass in a fresh process of this binary and waits for it.
fn spawn_pass(name: &str, env: &Env, trace: bool) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &env.seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .arg("--one-pass")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass process exited with {}", out.status));
    }
    PassResult::decode(&String::from_utf8_lossy(&out.stdout))
}

/// Everything one run measured.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in report order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only), medians over traced passes.
    layers: Layers,
    /// Informational `#` lines.
    info: Vec<String>,
    /// The traced passes.
    traced: Vec<PassResult>,
}

/// Runs `passes` cold passes (a traced run: rounds of an untraced and a
/// traced pass) through `spawn`, times set-up between them, and folds
/// everything into one report.
fn run(
    name: &str,
    env: Env,
    passes: usize,
    trace: bool,
    spawn: &mut dyn FnMut(bool) -> Result<PassResult, String>,
) -> Result<Report, String> {
    let rounds = if trace {
        passes.div_ceil(2).max(bench::MIN_TRACED_ROUNDS)
    } else {
        passes
    };
    // Set-up repetitions are spread over the run, a slice before every
    // round, so their median is not at the mercy of one slow second.
    let mut setups = Vec::new();
    let mut off = Ledger::off();
    let mut set_up = |setups: &mut Vec<f64>| {
        let (min_reps, max_reps) = (
            bench::SETUP_REPS.div_ceil(rounds),
            bench::SETUP_MAX_REPS / rounds,
        );
        let slice_start = Instant::now();
        let mut reps = 0;
        while reps < min_reps
            || (slice_start.elapsed().as_secs_f64() < bench::SETUP_MIN_S / rounds as f64
                && reps < max_reps)
        {
            let t0 = Instant::now();
            let w = setup(name, &env, &mut off);
            setups.push(t0.elapsed().as_secs_f64());
            drop(w);
            reps += 1;
        }
    };
    let mut plain = Vec::with_capacity(rounds);
    let mut traced = Vec::new();
    for _ in 0..rounds {
        set_up(&mut setups);
        plain.push(spawn(false)?);
        if trace {
            traced.push(spawn(true)?);
        }
    }
    let setup_s = bench::median(&setups);
    let once_failed = setup(name, &env, &mut off).once_checks();

    let all = || plain.iter().chain(&traced);
    let mut failed: u64 = once_failed + all().map(|p| p.failed).sum::<u64>();
    let attempted = all().map(|p| p.attempted).sum::<u64>().max(1);
    let units: Vec<Vec<f64>> = plain.iter().map(|p| p.units.clone()).collect();
    let wall_s = bench::pass_seconds(&units);
    let ops_per_pass = plain[0].attempted;

    let mut info = vec![
        format!("workload {name} seed {} size {:?}", env.seed, env.size),
        format!(
            "provenance rev={} available_parallelism={} threads_used={}",
            bench::source_revision(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            env.threads
        ),
        format!(
            "passes untraced={} traced={} ops_per_pass={} setup_reps={} \
             (each pass cold in its own process, one process at a time)",
            plain.len(),
            traced.len(),
            ops_per_pass,
            setups.len()
        ),
    ];
    let totals = |passes: &[PassResult]| -> Vec<String> {
        passes
            .iter()
            .map(|p| format!("{:.4}", p.units.iter().sum::<f64>()))
            .collect()
    };
    info.push(format!(
        "pass_s untraced=[{}] traced=[{}]",
        totals(&plain).join(" "),
        totals(&traced).join(" ")
    ));
    info.extend(plain[0].info.iter().cloned());
    info.push(format!("checks run once per run (in this process): {once_failed} failed"));

    // Every pass, direct or traced split, must produce the same results.
    let digest = plain[0].digest;
    let differ = all().filter(|p| p.digest != digest).count() as u64;
    failed += differ;
    info.push(format!(
        "digests of {} passes (untraced and traced) differ in {differ}",
        plain.len() + traced.len()
    ));
    if env.size == Size::Full && env.seed == bench::DEFAULT_SEED {
        let stored = bench::stored_digest(name);
        let ok = stored == Some(digest);
        failed += u64::from(!ok);
        info.push(format!(
            "digest {name} {digest:016x} stored {} {}",
            stored.map_or("none".to_string(), |d| format!("{d:016x}")),
            if ok { "match" } else { "MISMATCH" }
        ));
    } else {
        info.push(format!(
            "digest {name} {digest:016x} (stored only for seed {})",
            bench::DEFAULT_SEED
        ));
    }
    let error_rate = failed as f64 / attempted as f64;
    info.push(format!("error_rate {error_rate}"));

    let mut report = Report {
        attempted,
        failed,
        metrics: Vec::new(),
        layers: Layers::new(),
        info,
        traced: Vec::new(),
    };
    if !trace {
        let rss: Vec<f64> = plain.iter().map(|p| p.rss_mb).collect();
        report.metrics = vec![
            ("wall_s", wall_s, "s"),
            ("ops_per_s", ops_per_pass as f64 / wall_s, "1/s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", bench::median(&rss), "MB"),
        ];
        return Ok(report);
    }

    // Per-layer metrics: medians over the traced passes. A layer the
    // workload never calls reads 0 and is named as such.
    let mut layers = Layers::new();
    let mut not_called = Vec::new();
    for &(metric, _) in bench::LAYER_METRICS {
        let xs: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.layers.get(metric).copied())
            .collect();
        if xs.is_empty() {
            not_called.push(metric);
            layers.insert(metric, 0.0);
        } else {
            layers.insert(metric, bench::median(&xs));
        }
    }
    let traced_units: Vec<Vec<f64>> = traced.iter().map(|p| p.units.clone()).collect();
    layers.insert(
        "bench.trace_overhead_frac",
        bench::pass_seconds(&traced_units) / wall_s - 1.0,
    );
    layers.insert("error_rate", error_rate);
    not_called.retain(|m| !matches!(*m, "bench.trace_overhead_frac" | "error_rate"));
    report.info.push(format!(
        "layers_not_called (read 0 on this workload): {}",
        not_called.join(" ")
    ));
    let mut span_names: Vec<&String> = traced.iter().flat_map(|p| p.spans.keys()).collect();
    span_names.sort();
    span_names.dedup();
    for span in span_names {
        let med = |f: fn(&LayerTotal) -> f64| {
            let xs: Vec<f64> = traced
                .iter()
                .map(|p| p.spans.get(span).map_or(0.0, f))
                .collect();
            bench::median(&xs)
        };
        report.info.push(format!(
            "layer {span} total_s={:.6} self_s={:.6} calls={} (median per traced pass)",
            med(|t| t.total_s),
            med(|t| t.self_s),
            med(|t| t.calls as f64)
        ));
    }
    for p in &traced {
        report.info.push(format!(
            "traced pass total_s={:.6} self_sum_s={:.6}",
            p.traced_total_s,
            p.self_sum_s()
        ));
    }
    report.metrics = bench::LAYER_METRICS
        .iter()
        .map(|&(n, unit)| (n, layers[n], unit))
        .collect();
    report.layers = layers;
    report.traced = traced;
    Ok(report)
}

fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Hidden: run one cold pass and print it in the pass protocol.
    one_pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    let num = |flag| {
        get(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds")?,
        trace,
        one_pass: argv.iter().any(|a| a == "--one-pass"),
    })
}

/// Where a traced pass writes its spans as a Chrome trace.
fn chrome_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.json"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let env = Env {
        seed: args.seed,
        size: Size::Full,
        threads: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2),
    };
    let name = args.workload.as_str();
    if args.one_pass {
        let mut r = one_pass(name, &env, args.trace);
        if let Some(chrome) = r.chrome.take() {
            let path = chrome_path(name);
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, chrome));
            if let Err(e) = written {
                eprintln!("# chrome trace not written: {e}");
            }
        }
        print!("{}", r.encode());
        return;
    }
    let nominal = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .map_or(1.0, |w| w.1);
    let passes = bench::pass_count(args.seconds, nominal);
    let report = match run(name, env, passes, args.trace, &mut |t| {
        spawn_pass(name, &env, t)
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in &report.info {
        println!("# {line}");
    }
    if args.trace {
        println!(
            "# chrome trace of the last traced pass {}",
            chrome_path(name).display()
        );
    }
    println!("{}", result_json(&report));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Env {
        Env {
            seed,
            size: Size::Tiny,
            threads: 2,
        }
    }

    /// A run whose passes run in this process.
    fn run_here(name: &str, env: Env, trace: bool) -> Report {
        run(name, env, 1, trace, &mut |t| Ok(one_pass(name, &env, t))).expect("run")
    }

    #[test]
    fn every_workload_runs_clean_at_tiny_size() {
        for (name, _) in WORKLOADS {
            for trace in [false, true] {
                let r = run_here(name, tiny(3), trace);
                assert_eq!(r.failed, 0, "{name} trace={trace}: {:?}", r.info);
                assert!(r.attempted > 0);
                let want = if trace { bench::LAYER_METRICS.len() } else { 4 };
                assert_eq!(r.metrics.len(), want, "{name}");
                let json = result_json(&r);
                assert!(json.starts_with("{\"correct\": true"), "{json}");
                if !trace {
                    assert!(
                        r.metrics.iter().all(|m| m.1 > 0.0),
                        "{name}: {:?}",
                        r.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn self_times_sum_to_no_more_than_the_traced_total() {
        for (name, _) in WORKLOADS {
            let r = run_here(name, tiny(5), true);
            assert!(!r.traced.is_empty());
            for p in &r.traced {
                assert!(p.traced_total_s > 0.0);
                assert!(
                    p.self_sum_s() <= p.traced_total_s * (1.0 + 1e-9),
                    "{name}: self {} > total {}",
                    p.self_sum_s(),
                    p.traced_total_s
                );
                assert!(p
                    .chrome
                    .as_deref()
                    .is_some_and(|c| c.contains("bench.pass")));
            }
        }
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let counts = ["serializers.ops", "telemetry.spans"];
        for (name, _) in WORKLOADS {
            let a = run_here(name, tiny(9), true);
            let b = run_here(name, tiny(9), true);
            for c in counts {
                assert_eq!(a.layers[c].to_bits(), b.layers[c].to_bits(), "{name} {c}");
            }
            assert_eq!(a.attempted, b.attempted, "{name}: jobs and ops per run");
        }
        let pe = run_here("paper_eval", tiny(9), true);
        assert!(pe.layers["serializers.ops"] > 0.0);
        let cs = run_here("cluster", tiny(9), true);
        assert!(cs.layers["telemetry.spans"] > 0.0);
    }

    #[test]
    fn pass_results_survive_the_process_protocol() {
        let r = one_pass("cluster", &tiny(4), true);
        let back = PassResult::decode(&r.encode()).expect("decode");
        assert_eq!(back.units, r.units);
        assert_eq!((back.attempted, back.failed), (r.attempted, r.failed));
        assert_eq!((back.digest, back.rss_mb), (r.digest, r.rss_mb));
        assert_eq!(back.info, r.info);
        assert_eq!(back.layers, r.layers);
        assert_eq!(back.spans, r.spans);
        assert_eq!(back.traced_total_s, r.traced_total_s);
        assert!(PassResult::decode("noise\n").is_err());
    }
}

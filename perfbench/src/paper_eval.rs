//! `paper_eval`: the paper's evaluation path, as `--bin all` runs it.
//!
//! Six Table II shapes (seeded, see [`crate::shapes`]) and the six Spark
//! apps, each run by Java S/D, Kryo and Skyway on the modeled host core
//! (`runners::run_software`) and by Cereal and Cereal-Vanilla on the
//! accelerator (`runners::run_cereal`). One operation is one root
//! serialized and deserialized by one backend.
//!
//! The traced pass splits each software run into *record* (the serializer
//! narrating into the benchmark's buffer) and *replay* (the buffer through
//! `sim::Cpu`), and times the accelerator's calls and the functional
//! encoder/decoder they wrap. The split must reproduce the direct run's
//! simulated report bit for bit, or it measured a different program.

use std::time::Instant;

use cereal::{Accelerator, CerealConfig, ClassTables};
use cereal_bench::{run_cereal, run_software, SdMeasure};
use sdheap::rng::Rng;
use sdheap::{Addr, Heap, KlassRegistry};
use serializers::{JavaSd, Kryo, NullSink, Op, Serializer, Skyway, TraceSink};
use sim::{Cpu, CpuReport};
use telemetry::ratio;
use workloads::{SparkApp, SparkScale};

use crate::bench::{Env, Fnv, Layers, Size, Workload};
use crate::ledger::Ledger;
use crate::shapes::{self, Graph};

/// Recorded ops replayed per chunk: 4 MB of ops stays cache-friendly and
/// bounds the buffer whatever the graph size.
const CHUNK_OPS: usize = 1 << 18;

/// Fig. 10 speedups over Java S/D reported by the paper (EXPERIMENTS.md).
const PAPER_FIG10: [(&str, f64, f64); 2] = [("cereal", 26.5, 364.5), ("kryo", 2.30, 52.3)];

enum Backend {
    Software(Box<dyn Serializer>),
    Accel(CerealConfig),
}

impl Backend {
    fn all() -> Vec<Backend> {
        vec![
            Backend::Software(Box::new(JavaSd::new())),
            Backend::Software(Box::new(Kryo::new())),
            Backend::Software(Box::new(Skyway::new())),
            Backend::Accel(CerealConfig::paper()),
            Backend::Accel(CerealConfig::vanilla()),
        ]
    }

    fn run(&self, g: &mut Input) -> SdMeasure {
        match self {
            Backend::Software(ser) => run_software(ser.as_ref(), &mut g.heap, &g.reg, &g.roots),
            Backend::Accel(cfg) => run_cereal(*cfg, &mut g.heap, &g.reg, &g.roots),
        }
    }
}

/// One evaluation input: a heap and the roots issued against it.
struct Input {
    name: String,
    heap: Heap,
    reg: KlassRegistry,
    roots: Vec<Addr>,
    /// Micro shapes feed the Fig. 10 fidelity line; Spark apps do not.
    micro: bool,
}

impl Input {
    fn micro(g: Graph, requests: usize) -> Input {
        Input {
            name: g.name,
            heap: g.heap,
            reg: g.reg,
            roots: vec![g.root; requests],
            micro: true,
        }
    }
}

/// Seeded micro shapes, one request each (List-small: eight). Footprints
/// run from inside the modeled 32 KB L1 to just past the modeled 11 MB L3
/// (Tree-wide: 12 words × 122,880 nodes ≈ 11.8 MB).
fn micro_inputs(size: Size, rng: &mut Rng, led: &mut Ledger) -> Vec<Input> {
    let n = |full: usize, tiny: usize| if size == Size::Full { full } else { tiny };
    let mut gen = |f: &mut dyn FnMut(&mut Rng) -> Graph, requests| {
        Input::micro(led.time("workloads.gen", || f(rng)), requests)
    };
    vec![
        gen(&mut |r| shapes::tree("Tree-narrow", 2, n(8_191, 127), r), 1),
        gen(&mut |r| shapes::tree("Tree-wide", 8, n(122_880, 300), r), 1),
        gen(&mut |r| shapes::list("List-small", n(256, 64), r), 8),
        gen(&mut |r| shapes::list("List-large", n(16_384, 256), r), 1),
        gen(
            &mut |r| shapes::graph("Graph-sparse", n(2_048, 64), 1, r),
            1,
        ),
        gen(
            &mut |r| shapes::graph("Graph-dense", n(256, 32), n(255, 31), r),
            1,
        ),
    ]
}

/// The six Spark apps at `SparkScale::Tiny` (≈ 64 KiB each). Their
/// generator has a fixed internal seed, so this part is seed-invariant.
fn spark_inputs(size: Size, led: &mut Ledger) -> Vec<Input> {
    let apps: &[SparkApp] = match size {
        Size::Full => &SparkApp::all(),
        Size::Tiny => &[SparkApp::NWeight, SparkApp::Svm],
    };
    apps.iter()
        .map(|app| {
            let ds = led.time("workloads.gen", || app.build(SparkScale::Tiny));
            Input {
                name: format!("{}(tiny)", app.name()),
                heap: ds.heap,
                reg: ds.reg,
                roots: ds.batches,
                micro: false,
            }
        })
        .collect()
}

/// The `paper_eval` workload state.
pub struct PaperEval {
    inputs: Vec<Input>,
    backends: Vec<Backend>,
    /// Measures of the first pass, direct or split, per (input, backend).
    reference: Vec<SdMeasure>,
    /// Measures of the latest pass.
    last: Vec<SdMeasure>,
    /// Recorded-op buffer of the traced split.
    buf: Vec<Op>,
    /// Traced-pass counters.
    narrated: u64,
    core_sim_ns: f64,
}

impl PaperEval {
    /// Generates every input.
    pub fn setup(env: &Env, led: &mut Ledger) -> PaperEval {
        let mut rng = Rng::new(env.seed);
        let mut inputs = micro_inputs(env.size, &mut rng, led);
        inputs.extend(spark_inputs(env.size, led));
        PaperEval {
            inputs,
            backends: Backend::all(),
            reference: Vec::new(),
            last: Vec::new(),
            buf: Vec::with_capacity(CHUNK_OPS),
            narrated: 0,
            core_sim_ns: 0.0,
        }
    }

    /// Round trips every (input, backend) once through plain calls and
    /// checks the reconstruction is isomorphic to its source.
    fn check_roundtrips(&mut self) -> u64 {
        let mut failed = 0;
        for g in &mut self.inputs {
            let root = g.roots[0];
            for b in &self.backends {
                let ok = match b {
                    Backend::Software(ser) => {
                        let bytes = ser
                            .serialize(&mut g.heap, &g.reg, root, &mut NullSink)
                            .expect("serialize");
                        let mut dst = Heap::with_base(shapes::DST_BASE, g.heap.capacity_bytes());
                        let back = ser
                            .deserialize(&bytes, &g.reg, &mut dst, &mut NullSink)
                            .expect("deserialize");
                        shapes::same_graph(
                            &g.heap,
                            &g.reg,
                            root,
                            &dst,
                            back,
                            ser.preserves_identity_hash(),
                        )
                    }
                    Backend::Accel(cfg) => {
                        let mut accel = Accelerator::new(*cfg);
                        accel.register_all(&g.reg).expect("register classes");
                        g.heap.gc_clear_serialization_metadata(&g.reg);
                        let bytes = accel
                            .serialize(&mut g.heap, &g.reg, root)
                            .expect("ser")
                            .bytes;
                        let mut dst = Heap::with_base(shapes::DST_BASE, g.heap.capacity_bytes());
                        let de = accel.deserialize(&bytes, &mut dst).expect("deserialize");
                        shapes::same_graph(&g.heap, &g.reg, root, &dst, de.root, true)
                    }
                };
                failed += u64::from(!ok);
            }
        }
        failed
    }
}

/// A `TraceSink` that records narrated ops and replays them through a
/// `sim::Cpu` in chunks, each chunk inside a `sim.cpu` span.
struct Replay<'a> {
    buf: &'a mut Vec<Op>,
    cpu: &'a mut Cpu,
    led: &'a mut Ledger,
    narrated: u64,
}

impl Replay<'_> {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.narrated += self.buf.len() as u64;
        self.led.begin("sim.cpu");
        self.cpu.ops(self.buf);
        self.led.end();
        self.buf.clear();
    }
}

impl TraceSink for Replay<'_> {
    fn op(&mut self, op: Op) {
        self.buf.push(op);
        if self.buf.len() >= CHUNK_OPS {
            self.flush();
        }
    }

    fn ops(&mut self, ops: &[Op]) {
        self.buf.extend_from_slice(ops);
        if self.buf.len() >= CHUNK_OPS {
            self.flush();
        }
    }
}

/// Result of one traced split run.
struct Split {
    measure: SdMeasure,
    narrated: u64,
    /// First root's reconstruction, checked after the unit is timed.
    first: Option<(Heap, Addr)>,
}

/// `runners::run_software`, with every serializer call recorded and
/// replayed through its own `sim::Cpu`, so the serializer walk and the
/// CPU model are timed apart.
fn split_software(
    ser: &dyn Serializer,
    g: &mut Input,
    buf: &mut Vec<Op>,
    led: &mut Ledger,
) -> Split {
    let mut ser_cpu = Cpu::host();
    let mut streams = Vec::with_capacity(g.roots.len());
    let mut narrated = 0;
    {
        let mut rp = Replay {
            buf: &mut *buf,
            cpu: &mut ser_cpu,
            led: &mut *led,
            narrated: 0,
        };
        for &root in &g.roots {
            rp.led.begin("serializers.ser");
            let s = ser
                .serialize(&mut g.heap, &g.reg, root, &mut rp)
                .expect("serialize");
            rp.led.end();
            rp.flush();
            streams.push(s);
        }
        narrated += rp.narrated;
    }
    let ser_report = ser_cpu.report();

    let mut de_cpu = Cpu::host();
    let cap = g.heap.capacity_bytes();
    let mut first = None;
    for bytes in &streams {
        let mut dst = led.time("heap.alloc", || Heap::with_base(shapes::DST_BASE, cap));
        let mut rp = Replay {
            buf: &mut *buf,
            cpu: &mut de_cpu,
            led: &mut *led,
            narrated: 0,
        };
        rp.led.begin("serializers.de");
        let back = ser
            .deserialize(bytes, &g.reg, &mut dst, &mut rp)
            .expect("deserialize");
        rp.led.end();
        rp.flush();
        narrated += rp.narrated;
        if first.is_none() {
            first = Some((dst, back));
        }
    }
    let de_report = de_cpu.report();
    Split {
        measure: software_measure(ser.name(), &ser_report, &de_report, &streams),
        narrated,
        first,
    }
}

/// The `SdMeasure` `runners::run_software` derives from its two reports.
fn software_measure(name: &str, ser: &CpuReport, de: &CpuReport, streams: &[Vec<u8>]) -> SdMeasure {
    SdMeasure {
        name: name.to_string(),
        ser_ns: ser.ns,
        de_ns: de.ns,
        bytes: streams.iter().map(|s| s.len() as u64).sum(),
        ser_ipc: ser.ipc,
        de_ipc: de.ipc,
        ser_llc_miss_rate: ser.llc_miss_rate,
        ser_bw_util: ser.bandwidth_util,
        de_bw_util: de.bandwidth_util,
        ser_energy_uj: cereal::energy::cpu_energy_uj(ser.ns),
        de_energy_uj: cereal::energy::cpu_energy_uj(de.ns),
    }
}

/// `runners::run_cereal` with the accelerator's calls in spans.
fn split_accel(
    cfg: CerealConfig,
    g: &mut Input,
    led: &mut Ledger,
) -> (SdMeasure, f64, Option<(Heap, Addr)>) {
    let mut accel = Accelerator::new(cfg);
    accel.register_all(&g.reg).expect("register classes");
    g.heap.gc_clear_serialization_metadata(&g.reg);
    let mut streams = Vec::with_capacity(g.roots.len());
    for &root in &g.roots {
        led.begin("core.ser");
        streams.push(
            accel
                .serialize(&mut g.heap, &g.reg, root)
                .expect("serialize")
                .bytes,
        );
        led.end();
    }
    let ser_rep = accel.report();
    accel.reset_meters();
    let cap = g.heap.capacity_bytes();
    let mut first = None;
    for bytes in &streams {
        let mut dst = led.time("heap.alloc", || Heap::with_base(shapes::DST_BASE, cap));
        led.begin("core.de");
        let de = accel.deserialize(bytes, &mut dst).expect("deserialize");
        led.end();
        if first.is_none() {
            first = Some((dst, de.root));
        }
    }
    let de_rep = accel.report();
    let name = if cfg.vanilla {
        "Cereal Vanilla"
    } else {
        "Cereal"
    };
    let m = SdMeasure {
        name: name.to_string(),
        ser_ns: ser_rep.ser_makespan_ns,
        de_ns: de_rep.de_makespan_ns,
        bytes: streams.iter().map(|s| s.len() as u64).sum(),
        ser_ipc: 0.0,
        de_ipc: 0.0,
        ser_llc_miss_rate: 0.0,
        ser_bw_util: ser_rep.bandwidth_util,
        de_bw_util: de_rep.bandwidth_util,
        ser_energy_uj: ser_rep.energy_uj,
        de_energy_uj: de_rep.energy_uj,
    };
    (m, ser_rep.ser_makespan_ns + de_rep.de_makespan_ns, first)
}

/// The functional encoder and decoder the accelerator wraps, on the same
/// roots, without the SU/DU cycle model.
fn functional_only(cfg: CerealConfig, g: &mut Input, led: &mut Ledger) -> bool {
    let mut tables = ClassTables::new(cfg.max_classes);
    tables.register_all(&g.reg).expect("register classes");
    let cap = g.heap.capacity_bytes();
    let mut ok = true;
    for &root in &g.roots {
        g.heap.gc_clear_serialization_metadata(&g.reg);
        led.begin("format.encode");
        let out =
            cereal::functional::encode(&mut g.heap, &g.reg, &tables, 1, 0, cfg.strip_mark_words)
                .run(root)
                .expect("encode");
        led.end();
        let mut dst = Heap::with_base(shapes::DST_BASE, cap);
        led.begin("format.decode");
        let (back, _) =
            cereal::functional::decode(&out.stream, &tables, &mut dst, cfg.strip_mark_words)
                .expect("decode");
        led.end();
        ok &= shapes::same_graph(&g.heap, &g.reg, root, &dst, back, true);
    }
    ok
}

/// Every `f64` of a measure by bits, plus its byte count.
fn measure_bits(m: &SdMeasure) -> [u64; 11] {
    [
        m.ser_ns.to_bits(),
        m.de_ns.to_bits(),
        m.bytes,
        m.ser_ipc.to_bits(),
        m.de_ipc.to_bits(),
        m.ser_llc_miss_rate.to_bits(),
        m.ser_bw_util.to_bits(),
        m.de_bw_util.to_bits(),
        m.ser_energy_uj.to_bits(),
        m.de_energy_uj.to_bits(),
        m.name.len() as u64,
    ]
}

impl Workload for PaperEval {
    fn ops_per_pass(&self) -> u64 {
        self.inputs
            .iter()
            .map(|g| (g.roots.len() * self.backends.len()) as u64)
            .sum()
    }

    fn pass(&mut self, led: &mut Ledger, units: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        let mut measures = Vec::new();
        for g in &mut self.inputs {
            for b in &self.backends {
                let t0 = Instant::now();
                if !led.is_on() {
                    measures.push(b.run(g));
                    units.push(t0.elapsed().as_secs_f64());
                    continue;
                }
                let (m, first) = match b {
                    Backend::Software(ser) => {
                        let s = split_software(ser.as_ref(), g, &mut self.buf, led);
                        self.narrated += s.narrated;
                        (s.measure, s.first)
                    }
                    Backend::Accel(cfg) => {
                        let (m, sim_ns, first) = split_accel(*cfg, g, led);
                        self.core_sim_ns += sim_ns;
                        (m, first)
                    }
                };
                units.push(t0.elapsed().as_secs_f64());
                if let Some((dst, back)) = &first {
                    let identity = match b {
                        Backend::Software(ser) => ser.preserves_identity_hash(),
                        Backend::Accel(_) => true,
                    };
                    led.begin("bench.check");
                    failed += u64::from(!shapes::same_graph(
                        &g.heap, &g.reg, g.roots[0], dst, *back, identity,
                    ));
                    led.end();
                }
                if let Backend::Accel(cfg) = b {
                    failed += u64::from(!functional_only(*cfg, g, led));
                }
                measures.push(m);
            }
        }
        if self.reference.is_empty() {
            self.reference = measures.clone();
        }
        // Direct and split runs alike must reproduce the first pass's
        // reports bit for bit; a split that does not measured a different
        // program. Across processes the digests compare them.
        failed += measures
            .iter()
            .zip(&self.reference)
            .filter(|(a, b)| measure_bits(a) != measure_bits(b))
            .count() as u64;
        self.last = measures;
        failed
    }

    fn layers(&self, led: &Ledger, passes: f64, out: &mut Layers) {
        let per = |name: &str| led.get(name).self_s / passes;
        let sim = led.get("sim.cpu").total_s;
        let core = led.get("core.ser").total_s + led.get("core.de").total_s;
        out.insert("serializers.ser_s", per("serializers.ser"));
        out.insert("serializers.de_s", per("serializers.de"));
        out.insert("serializers.ops", self.narrated as f64 / passes);
        out.insert("sim.cpu.s", per("sim.cpu"));
        out.insert("sim.cpu.mops_per_s", ratio(self.narrated as f64 / 1e6, sim));
        out.insert("heap.alloc_s", per("heap.alloc"));
        out.insert("core.ser_s", per("core.ser"));
        out.insert("core.de_s", per("core.de"));
        out.insert(
            "core.sim_ns_per_host_ns",
            ratio(self.core_sim_ns, core * 1e9),
        );
        out.insert("format.encode_s", per("format.encode"));
        out.insert("format.decode_s", per("format.decode"));
    }

    fn once_checks(&mut self) -> u64 {
        self.check_roundtrips()
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for m in &self.last {
            for w in measure_bits(m) {
                h.word(w);
            }
        }
        h.get()
    }

    fn info(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .inputs
            .iter()
            .map(|g| {
                format!(
                    "input {} roots={} heap_used_bytes={}{}",
                    g.name,
                    g.roots.len(),
                    g.heap.used_bytes(),
                    if g.micro {
                        ""
                    } else {
                        " (fixed generator seed: seed-invariant)"
                    }
                )
            })
            .collect();
        lines.push(
            "simulated caches start empty for every backend run, as in runners::run_software; \
             no host warm-up pass"
                .to_string(),
        );
        // Fig. 10 fidelity: geometric-mean simulated speedups over Java
        // S/D across the micro shapes, beside the paper's values.
        let nb = self.backends.len();
        let micro: Vec<&[SdMeasure]> = self
            .inputs
            .iter()
            .zip(self.last.chunks(nb))
            .filter(|(g, _)| g.micro)
            .map(|(_, ms)| ms)
            .collect();
        for (label, paper_ser, paper_de) in PAPER_FIG10 {
            let col = if label == "cereal" { 3 } else { 1 };
            let geo = |f: &dyn Fn(&SdMeasure) -> f64| {
                let logs: f64 = micro.iter().map(|ms| (f(&ms[0]) / f(&ms[col])).ln()).sum();
                (logs / micro.len().max(1) as f64).exp()
            };
            let (ser, de) = (geo(&|m| m.ser_ns), geo(&|m| m.de_ns));
            lines.push(format!(
                "fidelity fig10 {label}_vs_java ser {ser:.2}x (paper {paper_ser}x, model/paper {:.2}) \
                 de {de:.2}x (paper {paper_de}x, model/paper {:.2}) [model error vs paper, informational]",
                ser / paper_ser,
                de / paper_de
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_replay_reproduces_the_direct_report_bit_for_bit() {
        let mut led = Ledger::on("test");
        let mut rng = Rng::new(7);
        let mut inputs = micro_inputs(Size::Tiny, &mut rng, &mut led);
        let mut buf = Vec::new();
        for g in inputs.iter_mut().take(3) {
            for ser in [
                Box::new(JavaSd::new()) as Box<dyn Serializer>,
                Box::new(Kryo::new()),
                Box::new(Skyway::new()),
            ] {
                // Direct narration into one CPU per phase, as run_software does.
                let mut cpu = Cpu::host();
                for &root in &g.roots {
                    ser.serialize(&mut g.heap, &g.reg, root, &mut cpu)
                        .expect("ser");
                }
                let direct = cpu.report();
                let split = split_software(ser.as_ref(), g, &mut buf, &mut led);
                assert_eq!(split.measure.ser_ns.to_bits(), direct.ns.to_bits());
                assert_eq!(split.measure.ser_ipc.to_bits(), direct.ipc.to_bits());
                assert_eq!(
                    split.measure.ser_llc_miss_rate.to_bits(),
                    direct.llc_miss_rate.to_bits()
                );
                let whole = run_software(ser.as_ref(), &mut g.heap, &g.reg, &g.roots);
                assert_eq!(
                    measure_bits(&split.measure),
                    measure_bits(&whole),
                    "{}",
                    g.name
                );
                assert!(split.narrated > 0);
            }
        }
        assert!(led.get("sim.cpu").calls > 0);
    }
}

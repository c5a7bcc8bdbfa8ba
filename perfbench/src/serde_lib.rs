//! `serde_lib`: the serializers as a library, with no timing model.
//!
//! The same Table II shapes plus `jsbs::media_content` and `spark::agg`
//! records, mixing small roots (per-call overhead, repeated within a
//! unit) with MB-scale roots. Each input runs all six software backends
//! (serialize and deserialize timed apart, `NullSink` narration),
//! `ArchiveView::validate` plus `fold_words` (the zero-copy read),
//! `cereal::functional::encode`/`decode`, and `sdformat::seal`/`verify`.
//! One operation is one round trip of one root through one of these.

use std::collections::BTreeMap;
use std::time::Instant;

use cereal::{CerealConfig, ClassTables};
use sdformat::CerealStream;
use sdheap::rng::Rng;
use sdheap::{Addr, GraphBuilder, GraphStats, Heap, KlassRegistry};
use serializers::{
    fold_words_heap, Archive, ArchiveView, JavaSd, JsonLike, Kryo, NullSink, ProtoLike, Serializer,
    Skyway,
};
use workloads::{AggConfig, KeySkew};

use crate::bench::{mb_per_s, Env, Fnv, Layers, Size, Workload};
use crate::ledger::Ledger;
use crate::shapes::{self, Graph};

/// A software backend with its span and metric names.
struct Soft {
    ser: Box<dyn Serializer>,
    /// The parser caps nesting depth (`JsonLike` at 200 objects), so
    /// long lists and large graphs, which nest as deep as they are long,
    /// are out of its range.
    shallow_only: bool,
    /// `(span, metric)` of serialization and of deserialization.
    ser_names: (&'static str, &'static str),
    de_names: (&'static str, &'static str),
}

macro_rules! soft {
    ($ser:expr, $label:literal, $shallow_only:literal) => {
        Soft {
            ser: Box::new($ser),
            shallow_only: $shallow_only,
            ser_names: (
                concat!("serializers.", $label, ".ser"),
                concat!("serializers.", $label, ".ser_mb_per_s"),
            ),
            de_names: (
                concat!("serializers.", $label, ".de"),
                concat!("serializers.", $label, ".de_mb_per_s"),
            ),
        }
    };
}

fn soft_backends() -> Vec<Soft> {
    vec![
        soft!(JavaSd::new(), "java", false),
        soft!(Kryo::new(), "kryo", false),
        soft!(Skyway::new(), "skyway", false),
        soft!(JsonLike::new(), "jsonlike", true),
        soft!(ProtoLike::new(), "protolike", false),
        soft!(Archive::new(), "archive", false),
    ]
}

/// One input root and how often one unit repeats it.
struct Input {
    name: String,
    heap: Heap,
    reg: KlassRegistry,
    root: Addr,
    reps: usize,
    /// Nests deeper than a depth-capped parser accepts.
    deep: bool,
    /// Capacity of each destination heap: the reachable graph plus slack,
    /// so small roots repeated thousands of times do not zero whole
    /// source-sized heaps.
    dst_cap: u64,
    /// `fold_words_heap` of the source: the zero-copy fold's oracle.
    fold: u64,
}

impl Input {
    fn new(g: Graph, reps: usize, deep: bool) -> Input {
        let fold = fold_words_heap(&g.heap, &g.reg, g.root);
        Input {
            dst_cap: GraphStats::measure(&g.heap, &g.reg, g.root).total_bytes * 5 / 4 / 8 * 8
                + (1 << 12),
            name: g.name,
            heap: g.heap,
            reg: g.reg,
            root: g.root,
            reps,
            deep,
            fold,
        }
    }
}

/// Seeded `spark::agg` records: one partition of `records` events, rooted
/// either at its first record (a small root) or at an `Object[]` batch
/// of all of them.
fn agg(seed: u64, records: usize, batch: bool) -> Graph {
    let cfg = AggConfig {
        mappers: 1,
        records_per_mapper: records,
        distinct_keys: 64,
        skew: KeySkew::Zipf(0.9),
        seed,
    };
    let part = cfg.build_partition(0);
    if !batch {
        return Graph {
            name: "agg-record(1)".to_string(),
            root: part.records[0],
            heap: part.heap,
            reg: part.reg,
        };
    }
    let mut b = GraphBuilder::from_parts(part.heap, part.reg);
    let root = b
        .ref_array(part.batch_klass, &part.records)
        .expect("capacity sized for a batch");
    let (heap, reg) = b.finish();
    Graph {
        name: format!("agg-batch({records})"),
        heap,
        reg,
        root,
    }
}

fn inputs(env: &Env, led: &mut Ledger) -> Vec<Input> {
    let mut rng = Rng::new(env.seed);
    let full = env.size == Size::Full;
    let n = |big: usize, tiny: usize| if full { big } else { tiny };
    let mut gen = |f: &mut dyn FnMut(&mut Rng) -> Graph, reps: usize, deep: bool| {
        Input::new(led.time("workloads.gen", || f(&mut rng)), reps, deep)
    };
    vec![
        // Small roots: per-call overhead dominates.
        gen(
            &mut |_| {
                let (heap, reg, root) = workloads::media_content();
                Graph {
                    name: "media-content(fixed)".to_string(),
                    heap,
                    reg,
                    root,
                }
            },
            n(800, 4),
            false,
        ),
        gen(&mut |r| agg(r.next_u64(), 64, false), n(1_600, 4), false),
        gen(
            &mut |r| shapes::list("List-small", 32, r),
            n(1_600, 4),
            false,
        ),
        // MB-scale roots.
        gen(
            &mut |r| shapes::tree("Tree-narrow", 2, n(32_767, 63), r),
            n(3, 1),
            false,
        ),
        gen(
            &mut |r| shapes::tree("Tree-wide", 8, n(12_288, 73), r),
            n(3, 1),
            false,
        ),
        gen(
            &mut |r| shapes::list("List-large", n(32_768, 128), r),
            n(3, 1),
            full,
        ),
        gen(
            &mut |r| shapes::graph("Graph-sparse", n(8_192, 32), 1, r),
            n(3, 1),
            full,
        ),
        gen(
            &mut |r| shapes::graph("Graph-dense", n(512, 16), n(511, 15), r),
            n(3, 1),
            full,
        ),
        gen(
            &mut |r| agg(r.next_u64(), n(8_192, 32), true),
            n(3, 1),
            false,
        ),
    ]
}

/// The `serde_lib` workload state.
pub struct SerdeLib {
    inputs: Vec<Input>,
    backends: Vec<Soft>,
    cereal: CerealConfig,
    /// Encoded lengths of the first pass, per (input, stream kind).
    reference: Vec<usize>,
    /// Encoded streams of the latest pass, for the digest.
    last: Vec<Vec<u8>>,
    /// Bytes moved per span name over traced passes.
    bytes: BTreeMap<&'static str, f64>,
}

impl SerdeLib {
    /// Generates every input.
    pub fn setup(env: &Env, led: &mut Ledger) -> SerdeLib {
        SerdeLib {
            inputs: inputs(env, led),
            backends: soft_backends(),
            cereal: CerealConfig::paper(),
            reference: Vec::new(),
            last: Vec::new(),
            bytes: BTreeMap::new(),
        }
    }
}

/// Destination heaps allocated per batch: bounds memory for small roots
/// repeated thousands of times.
const DST_BATCH: usize = 64;

/// Decodes `g.reps` times, each into a fresh destination heap. Heaps are
/// allocated a batch at a time before each decoding loop, so the
/// `de_span` spans time decoding alone; the unit's time covers both.
/// Returns the last reconstruction.
fn decode_reps(
    g: &Input,
    units: &mut Vec<f64>,
    led: &mut Ledger,
    de_span: &'static str,
    mut decode: impl FnMut(&mut Heap) -> Addr,
) -> (Heap, Addr) {
    let t0 = Instant::now();
    let mut left = g.reps;
    let mut last = None;
    while left > 0 {
        let n = left.min(DST_BATCH);
        let mut dsts: Vec<Heap> = led.time("heap.alloc", || {
            (0..n)
                .map(|_| Heap::with_base(shapes::DST_BASE, g.dst_cap))
                .collect()
        });
        let mut root = Addr::NULL;
        led.time(de_span, || {
            for dst in &mut dsts {
                root = decode(dst);
            }
        });
        left -= n;
        last = dsts.pop().map(|h| (h, root));
    }
    units.push(t0.elapsed().as_secs_f64());
    last.expect("reps > 0")
}

/// Whether backend `b` runs on input `g`.
fn runs(b: &Soft, g: &Input) -> bool {
    !(b.shallow_only && g.deep)
}

/// Times `f` over a unit, inside span `name`, pushing its seconds.
fn unit<T>(units: &mut Vec<f64>, led: &mut Ledger, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = led.time(name, f);
    units.push(t0.elapsed().as_secs_f64());
    r
}

impl Workload for SerdeLib {
    fn ops_per_pass(&self) -> u64 {
        self.inputs
            .iter()
            .map(|g| {
                let soft = self.backends.iter().filter(|b| runs(b, g)).count();
                (g.reps * (soft + 3)) as u64
            })
            .sum()
    }

    fn pass(&mut self, led: &mut Ledger, units: &mut Vec<f64>) -> u64 {
        let first_pass = self.reference.is_empty();
        let mut failed = 0u64;
        let mut lens = Vec::new();
        let mut streams = Vec::new();
        let mut moved: Vec<(&'static str, usize)> = Vec::new();
        for g in &mut self.inputs {
            let reps = g.reps;
            let mut archive = Vec::new();
            for b in &self.backends {
                if !runs(b, g) {
                    continue;
                }
                let mut out = Vec::new();
                unit(units, led, b.ser_names.0, || {
                    for _ in 0..reps {
                        b.ser
                            .serialize_into(&mut g.heap, &g.reg, g.root, &mut NullSink, &mut out)
                            .expect("serialize");
                    }
                });
                let (dst, back) = decode_reps(g, units, led, b.de_names.0, |dst| {
                    b.ser
                        .deserialize(&out, &g.reg, dst, &mut NullSink)
                        .expect("deserialize")
                });
                if first_pass {
                    let identity = b.ser.preserves_identity_hash();
                    failed += u64::from(!shapes::same_graph(
                        &g.heap, &g.reg, g.root, &dst, back, identity,
                    ));
                }
                moved.push((b.ser_names.0, out.len() * reps));
                moved.push((b.de_names.0, out.len() * reps));
                lens.push(out.len());
                if b.ser_names.0 == "serializers.archive.ser" {
                    archive = out.clone();
                }
                streams.push(out);
            }

            // Zero-copy read: validate the image, fold every data word.
            let folds = unit(units, led, "serializers.archive.view", || {
                (0..reps)
                    .map(|_| {
                        let view = ArchiveView::validate(&archive, &g.reg, &mut NullSink)
                            .expect("fresh archive validates");
                        view.fold_words(&mut NullSink)
                    })
                    .filter(|&f| f != g.fold)
                    .count()
            });
            failed += folds as u64;
            moved.push(("serializers.archive.view", archive.len() * reps));

            // The Cereal format without the cycle model.
            let mut tables = ClassTables::new(self.cereal.max_classes);
            tables.register_all(&g.reg).expect("register classes");
            let strip = self.cereal.strip_mark_words;
            let mut stream: Option<CerealStream> = None;
            unit(units, led, "format.encode", || {
                // A fresh serialization counter per request, as the
                // accelerator issues them.
                for counter in (1..=u16::MAX).take(reps) {
                    let out =
                        cereal::functional::encode(&mut g.heap, &g.reg, &tables, counter, 0, strip)
                            .run(g.root)
                            .expect("encode");
                    stream = Some(out.stream);
                }
            });
            let stream = stream.expect("reps > 0");
            // Later passes and backends see clean headers, as on the first.
            g.heap.gc_clear_serialization_metadata(&g.reg);
            let cereal_bytes = stream.to_bytes();
            let (dst, back) = decode_reps(g, units, led, "format.decode", |dst| {
                cereal::functional::decode(&stream, &tables, dst, strip)
                    .expect("decode")
                    .0
            });
            if first_pass {
                failed += u64::from(!shapes::same_graph(
                    &g.heap, &g.reg, g.root, &dst, back, true,
                ));
            }
            moved.push(("format.encode", cereal_bytes.len() * reps));
            moved.push(("format.decode", cereal_bytes.len() * reps));
            lens.push(cereal_bytes.len());

            // CRC frames over the Cereal stream: seal, then verify.
            let mut framed = Vec::with_capacity(cereal_bytes.len() + sdformat::FOOTER_BYTES);
            let bad = unit(units, led, "format.frame", || {
                (0..reps)
                    .filter(|_| {
                        framed.clear();
                        framed.extend_from_slice(&cereal_bytes);
                        sdformat::seal_into(&mut framed);
                        sdformat::verify(&framed).map(<[u8]>::len) != Ok(cereal_bytes.len())
                    })
                    .count()
            });
            failed += bad as u64;
            moved.push(("format.frame", cereal_bytes.len() * reps));
            streams.push(cereal_bytes);
        }
        if first_pass {
            self.reference = lens.clone();
        }
        failed += lens
            .iter()
            .zip(&self.reference)
            .filter(|(a, b)| a != b)
            .count() as u64;
        if led.is_on() {
            for (span, n) in moved {
                *self.bytes.entry(span).or_default() += n as f64;
            }
        }
        self.last = streams;
        failed
    }

    fn layers(&self, led: &Ledger, passes: f64, out: &mut Layers) {
        let mb = |span: &str| {
            mb_per_s(
                self.bytes.get(span).copied().unwrap_or(0.0),
                led.get(span).total_s,
            )
        };
        let sum = |span: fn(&Soft) -> &'static str| -> f64 {
            self.backends
                .iter()
                .map(|b| led.get(span(b)).total_s)
                .sum::<f64>()
                / passes
        };
        out.insert("serializers.ser_s", sum(|b| b.ser_names.0));
        out.insert("serializers.de_s", sum(|b| b.de_names.0));
        out.insert("heap.alloc_s", led.get("heap.alloc").total_s / passes);
        out.insert("format.encode_s", led.get("format.encode").total_s / passes);
        out.insert("format.decode_s", led.get("format.decode").total_s / passes);
        for b in &self.backends {
            for (span, metric) in [b.ser_names, b.de_names] {
                out.insert(metric, mb(span));
            }
        }
        out.insert(
            "serializers.archive.view_mb_per_s",
            mb("serializers.archive.view"),
        );
        out.insert("format.cereal.encode_mb_per_s", mb("format.encode"));
        out.insert("format.cereal.decode_mb_per_s", mb("format.decode"));
        out.insert("format.frame.mb_per_s", mb("format.frame"));
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for s in &self.last {
            h.word(s.len() as u64);
            for chunk in s.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                h.word(u64::from_le_bytes(w));
            }
        }
        h.get()
    }

    fn info(&self) -> Vec<String> {
        self.inputs
            .iter()
            .map(|g| {
                format!(
                    "input {} reps_per_unit={} heap_used_bytes={}",
                    g.name,
                    g.reps,
                    g.heap.used_bytes()
                )
            })
            .chain(std::iter::once(
                "media-content has a fixed generator seed (seed-invariant); every other input is seeded"
                    .to_string(),
            ))
            .collect()
    }
}

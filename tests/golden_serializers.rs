//! Frozen-fixture tests for the four layout-walking software backends
//! (Java S/D, Kryo, ProtoLike, JsonLike).
//!
//! Every backend's stream bytes and narrated op sequence are part of its
//! contract: the CPU model replays the ops, and the report figures come
//! from both. This test pins them over a fixed corpus — five hand-built
//! graphs, the six Table II micro shapes at `Scale::Tiny` and the JSBS
//! media-content object — as FNV-1a digests plus lengths and op counts.
//! It also pins the exact error and narrated op prefix of a decode cut
//! short at four points, and checks every round trip for isomorphism.
//!
//! The fixtures were printed by an independent field-walking reference
//! implementation of each backend, which agreed with the plan executors
//! on every case before it was retired.

use cereal_repro::baselines::{JavaSd, JsonLike, Kryo, Op, ProtoLike, Serializer, TraceSink};
use cereal_repro::bench_workloads::{media_content, MicroBench, Scale};
use cereal_repro::heap::builder::Init;
use cereal_repro::heap::{
    isomorphic_with, Addr, FieldKind, GraphBuilder, Heap, IsoOptions, KlassRegistry, ValueType,
};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// Counts ops and folds each into an FNV-1a digest through a fixed
/// encoding (tag byte, then every field little-endian). Batched
/// deliveries flatten through the default `ops` impl.
struct OpDigest {
    count: u64,
    hash: Fnv,
}

impl OpDigest {
    fn new() -> Self {
        OpDigest {
            count: 0,
            hash: Fnv::new(),
        }
    }

    fn summary(&self) -> String {
        format!("{} ops #{:016x}", self.count, self.hash.0)
    }
}

impl TraceSink for OpDigest {
    fn op(&mut self, op: Op) {
        self.count += 1;
        let h = &mut self.hash;
        match op {
            Op::Load {
                addr,
                bytes,
                dependent,
            } => {
                h.bytes(&[0]);
                h.bytes(&addr.to_le_bytes());
                h.bytes(&bytes.to_le_bytes());
                h.bytes(&[dependent as u8]);
            }
            Op::Store { addr, bytes } => {
                h.bytes(&[1]);
                h.bytes(&addr.to_le_bytes());
                h.bytes(&bytes.to_le_bytes());
            }
            Op::Alu(n) => {
                h.bytes(&[2]);
                h.bytes(&n.to_le_bytes());
            }
            Op::Branch => h.bytes(&[3]),
            Op::Call => h.bytes(&[4]),
            Op::ReflectCall => h.bytes(&[5]),
            Op::StrCompare(n) => {
                h.bytes(&[6]);
                h.bytes(&n.to_le_bytes());
            }
            Op::HashLookup => h.bytes(&[7]),
            Op::Alloc(n) => {
                h.bytes(&[8]);
                h.bytes(&n.to_le_bytes());
            }
        }
    }
}

type Graph = (Heap, KlassRegistry, Addr);

/// Mixed-width fields with interleaved refs (runs split at every ref),
/// diamond sharing of a value array.
fn diamond() -> Graph {
    let mut b = GraphBuilder::new(1 << 18);
    let m = b.klass(
        "Mixed",
        vec![
            FieldKind::Value(ValueType::Long),
            FieldKind::Value(ValueType::Int),
            FieldKind::Value(ValueType::Char),
            FieldKind::Value(ValueType::Byte),
            FieldKind::Ref,
            FieldKind::Value(ValueType::Boolean),
            FieldKind::Value(ValueType::Double),
            FieldKind::Ref,
            FieldKind::Value(ValueType::Int),
        ],
    );
    let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let shared = b
        .value_array(d, &[f64::to_bits(1.5), f64::to_bits(-2.25), 0])
        .unwrap();
    let left = b
        .object(
            m,
            &[
                Init::Val(0x0123_4567_89ab_cdef),
                Init::Val(0xffff_fffe),
                Init::Val(0x41),
                Init::Val(0x7f),
                Init::Ref(shared),
                Init::Val(1),
                Init::Val(f64::to_bits(0.5)),
                Init::Null,
                Init::Val(42),
            ],
        )
        .unwrap();
    let root = b
        .object(
            m,
            &[
                Init::Val(1),
                Init::Val(2),
                Init::Val(3),
                Init::Val(4),
                Init::Ref(left),
                Init::Val(0),
                Init::Val(f64::to_bits(-3.75)),
                Init::Ref(shared),
                Init::Val(5),
            ],
        )
        .unwrap();
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// A two-node cycle (exercises the back-reference paths).
fn cycle() -> Graph {
    let mut b = GraphBuilder::new(1 << 16);
    let k = b.klass("C", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
    let a = b.object(k, &[Init::Val(1), Init::Null]).unwrap();
    let c = b.object(k, &[Init::Val(2), Init::Ref(a)]).unwrap();
    let (mut heap, reg) = b.finish();
    heap.set_ref(a, 1, c);
    (heap, reg, c)
}

/// Value arrays of every formatting class plus a ref array with nulls
/// and sharing.
fn arrays() -> Graph {
    let mut b = GraphBuilder::new(1 << 18);
    let l = b.array_klass("long[]", FieldKind::Value(ValueType::Long));
    let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let o = b.array_klass("Object[]", FieldKind::Ref);
    let longs = b.value_array(l, &[0, 1, u64::MAX, 300, 1 << 40]).unwrap();
    let doubles = b
        .value_array(d, &[f64::to_bits(0.0), f64::to_bits(6.25e3)])
        .unwrap();
    let empty = b.value_array(l, &[]).unwrap();
    let root = b
        .ref_array(o, &[longs, Addr::NULL, doubles, longs, empty])
        .unwrap();
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// A linked list deep enough to stress resumable frames but within the
/// text parser's recursion cap.
fn deep_list() -> Graph {
    let mut b = GraphBuilder::new(1 << 20);
    let k = b.klass("L", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
    let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
    for i in 1..150u64 {
        head = b.object(k, &[Init::Val(i), Init::Ref(head)]).unwrap();
    }
    let (heap, reg) = b.finish();
    (heap, reg, head)
}

/// A registry with klasses but a null root.
fn null_root() -> Graph {
    let mut b = GraphBuilder::new(1 << 12);
    b.klass("N", vec![FieldKind::Value(ValueType::Long)]);
    let (heap, reg) = b.finish();
    (heap, reg, Addr::NULL)
}

/// The corpus: five hand-built graphs, the six micro shapes at
/// `Scale::Tiny`, and the JSBS media-content object.
fn corpus() -> Vec<(&'static str, Graph)> {
    let mut graphs = vec![
        ("diamond", diamond()),
        ("cycle", cycle()),
        ("arrays", arrays()),
        ("deep_list", deep_list()),
        ("null_root", null_root()),
    ];
    for bench in MicroBench::all() {
        graphs.push((bench.name(), bench.build(Scale::Tiny)));
    }
    graphs.push(("media-content", media_content()));
    graphs
}

fn backends() -> Vec<Box<dyn Serializer>> {
    vec![
        Box::new(JavaSd::new()),
        Box::new(Kryo::new()),
        Box::new(ProtoLike::new()),
        Box::new(JsonLike::new()),
    ]
}

fn decode_heap(src: &Heap) -> Heap {
    Heap::with_base(Addr(0x2_0000_0000), src.capacity_bytes())
}

/// Runs one backend over one graph and describes everything the fixtures
/// pin, one line per observation: the full round trip, then a decode of
/// the stream cut inside the header, at a quarter, at half and one byte
/// short. Asserts round-trip isomorphism on the way.
fn observe(ser: &dyn Serializer, gname: &str, graph: &mut Graph) -> Vec<String> {
    let (heap, reg, root) = graph;
    let case = format!("{}/{gname}", ser.name());
    let mut ops = OpDigest::new();
    let bytes = match ser.serialize(heap, reg, *root, &mut ops) {
        Ok(bytes) => bytes,
        Err(e) => return vec![format!("{case}: ser {e:?} after {}", ops.summary())],
    };
    let mut line = format!(
        "{case}: {} bytes #{:016x} | ser {}",
        bytes.len(),
        fnv(&bytes),
        ops.summary()
    );
    let mut ops = OpDigest::new();
    let mut dst = decode_heap(heap);
    match ser.deserialize(&bytes, reg, &mut dst, &mut ops) {
        Ok(new_root) => {
            line += &format!(" | de {}", ops.summary());
            let opts = IsoOptions {
                check_identity_hash: false,
            };
            assert!(
                isomorphic_with(heap, reg, *root, &dst, new_root, opts),
                "{case}: round trip is not isomorphic"
            );
        }
        Err(e) => line += &format!(" | de {e:?} after {}", ops.summary()),
    }
    let mut lines = vec![line];
    let n = bytes.len();
    for cut in [1, n / 4, n / 2, n.saturating_sub(1)] {
        let mut ops = OpDigest::new();
        let mut dst = decode_heap(heap);
        let outcome = match ser.deserialize(&bytes[..cut.min(n)], reg, &mut dst, &mut ops) {
            Ok(_) => "decoded".to_string(),
            Err(e) => format!("{e:?}"),
        };
        lines.push(format!(
            "{case} cut {cut}: {outcome} after {}",
            ops.summary()
        ));
    }
    lines
}

fn observe_all(backends: &[Box<dyn Serializer>]) -> Vec<String> {
    let mut lines = Vec::new();
    for (gname, mut graph) in corpus() {
        for ser in backends {
            lines.extend(observe(ser.as_ref(), gname, &mut graph));
        }
    }
    lines
}

#[test]
fn streams_ops_and_truncation_match_fixtures() {
    let observed = observe_all(&backends());
    for (i, (got, want)) in observed.iter().zip(EXPECTED).enumerate() {
        assert_eq!(got, want, "fixture line {i}");
    }
    assert_eq!(observed.len(), EXPECTED.len(), "fixture line count");
}

#[test]
fn serialize_into_reuses_buffer() {
    let (mut heap, reg, root) = diamond();
    for ser in backends() {
        let expect = ser
            .serialize(&mut heap, &reg, root, &mut OpDigest::new())
            .unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            let n = ser
                .serialize_into(&mut heap, &reg, root, &mut OpDigest::new(), &mut out)
                .unwrap();
            assert_eq!(n, expect.len(), "{}: serialize_into length", ser.name());
            assert_eq!(out, expect, "{}: serialize_into bytes", ser.name());
        }
    }
}

/// Printed by the reference walkers; one line per `observe` observation.
const EXPECTED: &[&str] = &[
    "Java/diamond: 188 bytes #9f5483c384990b65 | ser 163 ops #7dc87c81f9d54d50 | de 151 ops #f7f62a4fa487f4b6",
    "Java/diamond cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/diamond cut 47: Malformed(\"truncated stream\") after 31 ops #d78bfc8a5cdb232b",
    "Java/diamond cut 94: Malformed(\"truncated stream\") after 77 ops #9f80e2a2862b4ea8",
    "Java/diamond cut 187: Malformed(\"truncated stream\") after 147 ops #a9645a733bf6af90",
    "Kryo/diamond: 82 bytes #61d465189c4c81da | ser 96 ops #63610cf94d4a0404 | de 95 ops #9614f165e3638410",
    "Kryo/diamond cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/diamond cut 20: Malformed(\"truncated stream\") after 31 ops #dfbb5c87b7b67a0f",
    "Kryo/diamond cut 41: Malformed(\"truncated stream\") after 54 ops #0da3491a1be4a6e7",
    "Kryo/diamond cut 81: Malformed(\"bad varint\") after 91 ops #2c0c8f73e42b125a",
    "ProtoLike/diamond: 76 bytes #1c898a1b96ff47e6 | ser 88 ops #94ec77bc3e9a0750 | de 87 ops #cb2ef9c983645b76",
    "ProtoLike/diamond cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/diamond cut 19: Malformed(\"bad varint\") after 32 ops #90ec447b21180028",
    "ProtoLike/diamond cut 38: Malformed(\"truncated stream\") after 53 ops #a07aa398bcf18678",
    "ProtoLike/diamond cut 75: Malformed(\"bad varint\") after 84 ops #295c915ef30383d8",
    "JsonLike/diamond: 265 bytes #604b732d491daa97 | ser 148 ops #13ef35e56ea4d727 | de 521 ops #a4324498208dc2f0",
    "JsonLike/diamond cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/diamond cut 66: Malformed(\"unterminated token\") after 149 ops #fa96406057db959b",
    "JsonLike/diamond cut 132: Malformed(\"unterminated token\") after 245 ops #37dfa37c493ce68a",
    "JsonLike/diamond cut 264: Malformed(\"unterminated token\") after 516 ops #0bf049740ff9073e",
    "Java/cycle: 57 bytes #e994995a62b7846e | ser 55 ops #35b4bd2847107138 | de 48 ops #e244d9146babcc9d",
    "Java/cycle cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/cycle cut 14: Malformed(\"truncated stream\") after 8 ops #7cc43d450782a4d2",
    "Java/cycle cut 28: Malformed(\"truncated stream\") after 19 ops #2f2101a7e910a1c4",
    "Java/cycle cut 56: Malformed(\"truncated stream\") after 44 ops #1b766d0f21be0a7f",
    "Kryo/cycle: 22 bytes #b91b1875b9da0dbc | ser 32 ops #23dad13c48f3d359 | de 32 ops #c54950dad3395605",
    "Kryo/cycle cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/cycle cut 5: Malformed(\"truncated stream\") after 8 ops #42227aa2d5320274",
    "Kryo/cycle cut 11: Malformed(\"bad varint\") after 14 ops #d2b980d157ace5ef",
    "Kryo/cycle cut 21: Malformed(\"bad varint\") after 27 ops #c2afd555f9ec223c",
    "ProtoLike/cycle: 8 bytes #357c4587ec8904cb | ser 27 ops #532ee8813960c0fe | de 26 ops #ad4ba9a43c16f353",
    "ProtoLike/cycle cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/cycle cut 2: Malformed(\"bad varint\") after 7 ops #4a79174605d974c7",
    "ProtoLike/cycle cut 4: Malformed(\"bad varint\") after 12 ops #1379251c99e4ce51",
    "ProtoLike/cycle cut 7: Malformed(\"bad varint\") after 23 ops #613f18a7bb4a7265",
    "JsonLike/cycle: 70 bytes #5aa774cbd7f59a23 | ser 41 ops #bf1c8f5a284ed68b | de 188 ops #fc77b34b25670c2a",
    "JsonLike/cycle cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/cycle cut 17: Malformed(\"unterminated token\") after 46 ops #aa242ba7316cee24",
    "JsonLike/cycle cut 35: Malformed(\"unexpected end of text\") after 92 ops #f8ded68459502663",
    "JsonLike/cycle cut 69: Malformed(\"unexpected end of text\") after 185 ops #48661d500a6bf6c2",
    "Java/arrays: 155 bytes #a1a2c7edeee07767 | ser 93 ops #db6224642aead47a | de 80 ops #21530df7d69f7894",
    "Java/arrays cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/arrays cut 38: Malformed(\"truncated stream\") after 21 ops #173cc893f966c3eb",
    "Java/arrays cut 77: Malformed(\"truncated stream\") after 34 ops #09b1c6a3348ce3ef",
    "Java/arrays cut 154: Malformed(\"truncated stream\") after 76 ops #5381b55a7d45e4b3",
    "Kryo/arrays: 71 bytes #3f8255850c1023cc | ser 72 ops #4569cacff8499bb3 | de 68 ops #bbd9a161818697d9",
    "Kryo/arrays cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/arrays cut 17: Malformed(\"truncated stream\") after 22 ops #3203dab9c20b097d",
    "Kryo/arrays cut 35: Malformed(\"truncated stream\") after 26 ops #81d1738abecc5b8f",
    "Kryo/arrays cut 70: Malformed(\"bad varint\") after 63 ops #dab4e07b440f25cf",
    "ProtoLike/arrays: 42 bytes #85f4ef51bb4a678a | ser 70 ops #87437b91f3f4de81 | de 69 ops #a39e4290d7ead23c",
    "ProtoLike/arrays cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/arrays cut 10: Malformed(\"bad varint\") after 29 ops #b4d0b562a84b4040",
    "ProtoLike/arrays cut 21: Malformed(\"truncated stream\") after 49 ops #6541b28126273361",
    "ProtoLike/arrays cut 41: Malformed(\"bad varint\") after 64 ops #d715e19028f7f1af",
    "JsonLike/arrays: 192 bytes #c74c9b43574ead70 | ser 93 ops #5de6b21a9e3dd1ad | de 367 ops #8a7f7424fbb8cfa7",
    "JsonLike/arrays cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/arrays cut 48: Malformed(\"unexpected end of text\") after 102 ops #1acca6590484c891",
    "JsonLike/arrays cut 96: Malformed(\"unterminated token\") after 146 ops #70444a95f7acd8a4",
    "JsonLike/arrays cut 191: Malformed(\"unexpected end of text\") after 358 ops #1f1ac07a1a156000",
    "Java/deep_list: 2125 bytes #55da7684e1170304 | ser 2568 ops #9c00a50ace1c310e | de 2118 ops #1a695ddc58db0920",
    "Java/deep_list cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/deep_list cut 531: Malformed(\"truncated stream\") after 521 ops #e69fe42d1deea43d",
    "Java/deep_list cut 1062: Malformed(\"truncated stream\") after 1053 ops #e1ff85754821c360",
    "Java/deep_list cut 2124: Malformed(\"truncated stream\") after 2115 ops #4afbfffa4b4898ce",
    "Kryo/deep_list: 1501 bytes #b29582989f6bbdac | ser 1953 ops #04589b4cf658cac8 | de 1953 ops #55ece7d5e3d80c4e",
    "Kryo/deep_list cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/deep_list cut 375: Malformed(\"truncated stream\") after 489 ops #4e957328021d39b5",
    "Kryo/deep_list cut 750: Malformed(\"truncated stream\") after 975 ops #b1cb97d28718c340",
    "Kryo/deep_list cut 1500: Malformed(\"truncated stream\") after 1950 ops #020a9e587ca9e0ac",
    "ProtoLike/deep_list: 537 bytes #29d966e58430db29 | ser 1652 ops #88b73ce7585ad238 | de 1652 ops #2b5f72409ab14ac6",
    "ProtoLike/deep_list cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/deep_list cut 134: Malformed(\"bad varint\") after 370 ops #daacb876ea262b04",
    "ProtoLike/deep_list cut 268: Malformed(\"truncated stream\") after 737 ops #b8e4921db17dc99e",
    "ProtoLike/deep_list cut 536: Malformed(\"truncated stream\") after 1650 ops #9f21edce0eaef5d7",
    "JsonLike/deep_list: 5034 bytes #e4d186082a31ff16 | ser 2704 ops #37317909ddb059a4 | de 12613 ops #66ddca0bbf8fd7b0",
    "JsonLike/deep_list cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/deep_list cut 1258: Malformed(\"unexpected end of text\") after 3080 ops #c11f70b2bbc64dc2",
    "JsonLike/deep_list cut 2517: Malformed(\"unexpected end of text\") after 6197 ops #150db8b1d0eed277",
    "JsonLike/deep_list cut 5033: Malformed(\"unexpected end of text\") after 12610 ops #92fbeed157143487",
    "Java/null_root: 5 bytes #bc71e912878629db | ser 5 ops #c926acf1931507be | de 5 ops #838a8c265edb0a15",
    "Java/null_root cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/null_root cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/null_root cut 2: Malformed(\"truncated stream\") after 1 ops #18858e0bdc6989a7",
    "Java/null_root cut 4: Malformed(\"truncated stream\") after 4 ops #2e54dcc40f340126",
    "Kryo/null_root: 1 bytes #af63bd4c8601b7df | ser 3 ops #b364ff11139952a2 | de 3 ops #29cc53154c865a43",
    "Kryo/null_root cut 1: decoded after 3 ops #29cc53154c865a43",
    "Kryo/null_root cut 0: Malformed(\"truncated stream\") after 2 ops #0824ed07b4dfde30",
    "Kryo/null_root cut 0: Malformed(\"truncated stream\") after 2 ops #0824ed07b4dfde30",
    "Kryo/null_root cut 0: Malformed(\"truncated stream\") after 2 ops #0824ed07b4dfde30",
    "ProtoLike/null_root: 1 bytes #af63bd4c8601b7df | ser 2 ops #5eb4633826c61e88 | de 2 ops #b954b8b09429c895",
    "ProtoLike/null_root cut 1: decoded after 2 ops #b954b8b09429c895",
    "ProtoLike/null_root cut 0: Malformed(\"truncated stream\") after 1 ops #af63be4c8601b992",
    "ProtoLike/null_root cut 0: Malformed(\"truncated stream\") after 1 ops #af63be4c8601b992",
    "ProtoLike/null_root cut 0: Malformed(\"truncated stream\") after 1 ops #af63be4c8601b992",
    "JsonLike/null_root: 4 bytes #5b9bc4ba528108e4 | ser 4 ops #73d708533e110ffb | de 13 ops #12fa8982e29cde0b",
    "JsonLike/null_root cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/null_root cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/null_root cut 2: Malformed(\"unexpected end of text\") after 7 ops #8befec8983868b30",
    "JsonLike/null_root cut 3: Malformed(\"unexpected end of text\") after 10 ops #dc3dd9a88e8aa329",
    "Java/Tree-narrow: 3848 bytes #9aebfa46dc1af93d | ser 5864 ops #8f8af9a8d86c2243 | de 4848 ops #dcd8527370abba2b",
    "Java/Tree-narrow cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/Tree-narrow cut 962: Malformed(\"truncated stream\") after 1171 ops #51b99d3f009107c4",
    "Java/Tree-narrow cut 1924: Malformed(\"truncated stream\") after 2397 ops #d579f863d1103c41",
    "Java/Tree-narrow cut 3847: Malformed(\"truncated stream\") after 4845 ops #dd3e9dcbe50df9b3",
    "Kryo/Tree-narrow: 2795 bytes #b6739fcf68c7fe79 | ser 4575 ops #755cb2bd0cc3340d | de 4575 ops #a01b31767aa35916",
    "Kryo/Tree-narrow cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/Tree-narrow cut 698: Malformed(\"truncated stream\") after 1127 ops #54f1be459c27d9ba",
    "Kryo/Tree-narrow cut 1397: Malformed(\"bad varint\") after 2282 ops #f1f62182a9ab5a8c",
    "Kryo/Tree-narrow cut 2794: Malformed(\"truncated stream\") after 4572 ops #8fc1f62c474fc24d",
    "ProtoLike/Tree-narrow: 1080 bytes #bc2cb68fc677a6d8 | ser 3558 ops #ed92e4ad0b88319e | de 3558 ops #0983ac10cd0a66dd",
    "ProtoLike/Tree-narrow cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/Tree-narrow cut 270: Malformed(\"bad varint\") after 947 ops #51ab7d70ec4bd157",
    "ProtoLike/Tree-narrow cut 540: Malformed(\"truncated stream\") after 1886 ops #8cf8ff78de9d020c",
    "ProtoLike/Tree-narrow cut 1079: Malformed(\"truncated stream\") after 3556 ops #c164f19aec718889",
    "JsonLike/Tree-narrow: 13074 bytes #3380f4ea64f2f428 | ser 6608 ops #4196367b46a4496a | de 28715 ops #23fb7f96da017dab",
    "JsonLike/Tree-narrow cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/Tree-narrow cut 3268: Malformed(\"unterminated token\") after 7326 ops #71a23bcbc1dc6a1f",
    "JsonLike/Tree-narrow cut 6537: Malformed(\"unterminated token\") after 14531 ops #14c97d4f8644438b",
    "JsonLike/Tree-narrow cut 13073: Malformed(\"unexpected end of text\") after 28712 ops #d52683bcf71a2ca8",
    "Java/Tree-wide: 12332 bytes #bc9868a9ed4bd678 | ser 34502 ops #cb1359f537a87927 | de 28662 ops #06aaabdc8ce2ef02",
    "Java/Tree-wide cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/Tree-wide cut 3083: Malformed(\"truncated stream\") after 7059 ops #55059d735437c0fd",
    "Java/Tree-wide cut 6166: Malformed(\"truncated stream\") after 14242 ops #8309ca4fd1d69941",
    "Java/Tree-wide cut 12331: Malformed(\"truncated stream\") after 28659 ops #be0950b0413fefc8",
    "Kryo/Tree-wide: 9929 bytes #00d3e27adfa82b73 | ser 28035 ops #22d2ce873e9ce8c1 | de 28035 ops #8c48313afb9c469a",
    "Kryo/Tree-wide cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/Tree-wide cut 2482: Malformed(\"truncated stream\") after 6986 ops #a62bfefd06118e63",
    "Kryo/Tree-wide cut 4964: Malformed(\"truncated stream\") after 14004 ops #09c1004d55cdeb8a",
    "Kryo/Tree-wide cut 9928: Malformed(\"truncated stream\") after 28032 ops #1d4567a24e974622",
    "ProtoLike/Tree-wide: 6288 bytes #e015525767be5e82 | ser 18690 ops #d5815368b1ab25b1 | de 18690 ops #0cad9eabb10ca6a0",
    "ProtoLike/Tree-wide cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/Tree-wide cut 1572: Malformed(\"bad varint\") after 4817 ops #6749217603b12faa",
    "ProtoLike/Tree-wide cut 3144: Malformed(\"truncated stream\") after 9444 ops #162a932aae19b1cf",
    "ProtoLike/Tree-wide cut 6287: Malformed(\"truncated stream\") after 18688 ops #84cee35560c1b3e1",
    "JsonLike/Tree-wide: 65684 bytes #241c9a75b1aead57 | ser 43220 ops #3f4fce6058169949 | de 167621 ops #d878dbfe13d5ed79",
    "JsonLike/Tree-wide cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/Tree-wide cut 16421: Malformed(\"unexpected end of text\") after 42260 ops #440b28a15d0aa5ed",
    "JsonLike/Tree-wide cut 32842: Malformed(\"unterminated token\") after 84071 ops #2942d100133e6ef6",
    "JsonLike/Tree-wide cut 65683: Malformed(\"unexpected end of text\") after 167618 ops #5cfe80883a71e4b8",
    "Java/List-small: 1824 bytes #5932e9f848704195 | ser 2194 ops #1e39ca3edcdc5b03 | de 1810 ops #8e66baa62d9b9d14",
    "Java/List-small cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/List-small cut 456: Malformed(\"truncated stream\") after 437 ops #c8381803361e17c1",
    "Java/List-small cut 912: Malformed(\"truncated stream\") after 891 ops #850f85166e8b3640",
    "Java/List-small cut 1823: Malformed(\"truncated stream\") after 1807 ops #e48a711566216300",
    "Kryo/List-small: 1281 bytes #6455583945ae48df | ser 1667 ops #25996c235aea2d52 | de 1667 ops #388890b1140e934f",
    "Kryo/List-small cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/List-small cut 320: Malformed(\"truncated stream\") after 416 ops #10aafac5ca013196",
    "Kryo/List-small cut 640: Malformed(\"truncated stream\") after 832 ops #3fe07b39f76a0f8b",
    "Kryo/List-small cut 1280: Malformed(\"truncated stream\") after 1664 ops #957f4cd2d63f0ead",
    "ProtoLike/List-small: 449 bytes #4c6eaeb80f2bef5f | ser 1410 ops #307a0de5c1cd7113 | de 1410 ops #4a943aee0ec6e8a2",
    "ProtoLike/List-small cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/List-small cut 112: Malformed(\"truncated stream\") after 308 ops #0a42606d19b8d320",
    "ProtoLike/List-small cut 224: Malformed(\"truncated stream\") after 616 ops #e582d3313dd8aae9",
    "ProtoLike/List-small cut 448: Malformed(\"truncated stream\") after 1408 ops #85b836a1341e02ec",
    "JsonLike/List-small: 5160 bytes #0bc1fa73415b830a | ser 2308 ops #b92d48ea4a9ed25e | de 10765 ops #0eb5aa41908667b1",
    "JsonLike/List-small cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/List-small cut 1290: Malformed(\"unterminated token\") after 2606 ops #eebf810a9af79a99",
    "JsonLike/List-small cut 2580: Malformed(\"unterminated token\") after 5254 ops #201ac81c42d7c32c",
    "JsonLike/List-small cut 5159: Malformed(\"unexpected end of text\") after 10762 ops #8757a8ef308a9a13",
    "Java/List-large: 7200 bytes #9baf65c951c03995 | ser 8722 ops #30021194c63ef2af | de 7186 ops #0f8cdb6fe21bebee",
    "Java/List-large cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/List-large cut 1800: Malformed(\"truncated stream\") after 1781 ops #ebea5958e6d7c18d",
    "Java/List-large cut 3600: Malformed(\"truncated stream\") after 3579 ops #1a1c6c4538aa26d5",
    "Java/List-large cut 7199: Malformed(\"truncated stream\") after 7183 ops #5bb8795cbf22bd99",
    "Kryo/List-large: 5121 bytes #85cbb269c45e28df | ser 6659 ops #13e7c6e8bbd87de2 | de 6659 ops #1802cd7c1e0c661f",
    "Kryo/List-large cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/List-large cut 1280: Malformed(\"truncated stream\") after 1664 ops #957f4cd2d63f0ead",
    "Kryo/List-large cut 2560: Malformed(\"truncated stream\") after 3328 ops #b30a36f4f4b593b6",
    "Kryo/List-large cut 5120: Malformed(\"truncated stream\") after 6656 ops #8fb39be5fcb9c720",
    "ProtoLike/List-large: 1985 bytes #6e0b56891a3ab25f | ser 5634 ops #de23de95c55fe609 | de 5634 ops #b9747c777d7f02d4",
    "ProtoLike/List-large cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/List-large cut 496: Malformed(\"truncated stream\") after 1364 ops #8d82fc3276f72c40",
    "ProtoLike/List-large cut 992: Malformed(\"truncated stream\") after 2728 ops #86dae541d29f0f41",
    "ProtoLike/List-large cut 1984: Malformed(\"truncated stream\") after 5632 ops #a6617aefc34947f0",
    "JsonLike/List-large: 21288 bytes #263b9c88097f78e2 | ser 9220 ops #3ab9ea27f7e42259 | de Malformed(\"nesting too deep\") after 16001 ops #ad41b7fcd063c36c",
    "JsonLike/List-large cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/List-large cut 5322: Malformed(\"unexpected end of text\") after 10597 ops #57376488944d0faa",
    "JsonLike/List-large cut 10644: Malformed(\"nesting too deep\") after 16001 ops #ad41b7fcd063c36c",
    "JsonLike/List-large cut 21287: Malformed(\"nesting too deep\") after 16001 ops #ad41b7fcd063c36c",
    "Java/Graph-sparse: 1932 bytes #87c26543dd991b5f | ser 2417 ops #0e114384530806db | de 1963 ops #3e80749bb8f3c058",
    "Java/Graph-sparse cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/Graph-sparse cut 483: Malformed(\"truncated stream\") after 448 ops #3162a09cce2f02a1",
    "Java/Graph-sparse cut 966: Malformed(\"truncated stream\") after 944 ops #0f0cabcf939bc29c",
    "Java/Graph-sparse cut 1931: Malformed(\"truncated stream\") after 1960 ops #7f4bc4b1960d3b17",
    "Kryo/Graph-sparse: 973 bytes #c659e7edc0d04b84 | ser 2072 ops #3be8da77d97a8ae9 | de 2007 ops #4ea05f366c4b4550",
    "Kryo/Graph-sparse cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/Graph-sparse cut 243: Malformed(\"truncated stream\") after 454 ops #a43dfb24985a799e",
    "Kryo/Graph-sparse cut 486: Malformed(\"bad varint\") after 947 ops #50391795f6c1a58d",
    "Kryo/Graph-sparse cut 972: Malformed(\"bad varint\") after 2003 ops #51d2d5d8d061723d",
    "ProtoLike/Graph-sparse: 518 bytes #5a9548d3efa13e9d | ser 1683 ops #2a6b330c59bce496 | de 1619 ops #8012970bc5b03958",
    "ProtoLike/Graph-sparse cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/Graph-sparse cut 129: Malformed(\"bad varint\") after 424 ops #57992b4a8cc4c506",
    "ProtoLike/Graph-sparse cut 259: Malformed(\"truncated stream\") after 836 ops #820748f9af1a2583",
    "ProtoLike/Graph-sparse cut 517: Malformed(\"bad varint\") after 1616 ops #d445b91f5db19d58",
    "JsonLike/Graph-sparse: 5669 bytes #7c4de8d763ef6b6e | ser 2394 ops #da3809cb689b24de | de 11737 ops #42703608fe0b1c32",
    "JsonLike/Graph-sparse cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/Graph-sparse cut 1417: Malformed(\"unterminated token\") after 2858 ops #481646bf90c4a99b",
    "JsonLike/Graph-sparse cut 2834: Malformed(\"unexpected end of text\") after 5813 ops #1672e2f25b23daab",
    "JsonLike/Graph-sparse cut 5668: Malformed(\"unexpected end of text\") after 11734 ops #1400977c0a4ac013",
    "Java/Graph-dense: 21772 bytes #ea4d6c0518cbcf11 | ser 30193 ops #fdbf568f2ad3d15a | de 25771 ops #8681b5c0cd14f60c",
    "Java/Graph-dense cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/Graph-dense cut 5443: Malformed(\"truncated stream\") after 6178 ops #903b24f94b9e84d4",
    "Java/Graph-dense cut 10886: Malformed(\"truncated stream\") after 12706 ops #c5e31615a068ef7a",
    "Java/Graph-dense cut 21771: Malformed(\"truncated stream\") after 25768 ops #a93a4c681ac6a3b5",
    "Kryo/Graph-dense: 8977 bytes #f3d9c2cae72e35e0 | ser 29848 ops #5a20acec3887a5e9 | de 29783 ops #f02fd7e175832818",
    "Kryo/Graph-dense cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/Graph-dense cut 2244: Malformed(\"bad varint\") after 6420 ops #3c722834763d98eb",
    "Kryo/Graph-dense cut 4488: Malformed(\"truncated stream\") after 14203 ops #af8a02aece5700e4",
    "Kryo/Graph-dense cut 8976: Malformed(\"bad varint\") after 29779 ops #d7549aedaa11d25d",
    "ProtoLike/Graph-dense: 8522 bytes #200125a74bf71313 | ser 25491 ops #886d2f7ef85e9541 | de 21459 ops #7a3096ec288ef281",
    "ProtoLike/Graph-dense cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/Graph-dense cut 2130: Malformed(\"bad varint\") after 5621 ops #90a23ae29d11a2ab",
    "ProtoLike/Graph-dense cut 4261: Malformed(\"bad varint\") after 10891 ops #3202e77158fd413f",
    "ProtoLike/Graph-dense cut 8521: Malformed(\"bad varint\") after 21456 ops #ec59ecfd416424ce",
    "JsonLike/Graph-dense: 46046 bytes #6f55976758536aba | ser 34138 ops #153240a5a7251b41 | de 106969 ops #93bbfd3dae49f2ab",
    "JsonLike/Graph-dense cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/Graph-dense cut 11511: Malformed(\"unterminated token\") after 25066 ops #cc7bcc71ca2f30bd",
    "JsonLike/Graph-dense cut 23023: Malformed(\"unterminated token\") after 52375 ops #f07a38c828e8e900",
    "JsonLike/Graph-dense cut 46045: Malformed(\"unexpected end of text\") after 106966 ops #22b6c3c993c2abfc",
    "Java/media-content: 759 bytes #ba684207348ac9a8 | ser 458 ops #652017a6174e34b3 | de 406 ops #27e2a334db64cf8b",
    "Java/media-content cut 1: Malformed(\"truncated stream\") after 0 ops #cbf29ce484222325",
    "Java/media-content cut 189: Malformed(\"truncated stream\") after 106 ops #77293fc6dbda12bd",
    "Java/media-content cut 379: Malformed(\"truncated stream\") after 208 ops #af22fae2c341b479",
    "Java/media-content cut 758: Malformed(\"truncated stream\") after 402 ops #cb55664ad72b69fb",
    "Kryo/media-content: 452 bytes #df18aa50f1fc7961 | ser 322 ops #de89dd1e998f1d77 | de 311 ops #fd65b26dadcc019b",
    "Kryo/media-content cut 1: Malformed(\"bad varint\") after 3 ops #29cc53154c865a43",
    "Kryo/media-content cut 113: Malformed(\"truncated stream\") after 84 ops #3a579f1991c3f283",
    "Kryo/media-content cut 226: Malformed(\"truncated stream\") after 188 ops #1711378d4ec4d2cb",
    "Kryo/media-content cut 451: Malformed(\"bad varint\") after 307 ops #a66fc6c66b893f7f",
    "ProtoLike/media-content: 422 bytes #b84fce39971f7e6d | ser 365 ops #8ab91184731824a2 | de 365 ops #135ab6f635ea3569",
    "ProtoLike/media-content cut 1: Malformed(\"bad varint\") after 2 ops #b954b8b09429c895",
    "ProtoLike/media-content cut 105: Malformed(\"bad varint\") after 89 ops #2545fc0cda03c14d",
    "ProtoLike/media-content cut 211: Malformed(\"bad varint\") after 207 ops #43401671c64fcdd6",
    "ProtoLike/media-content cut 421: Malformed(\"bad varint\") after 362 ops #491419dcaed92405",
    "JsonLike/media-content: 1401 bytes #72ba9ed349b57c4b | ser 487 ops #73c6e650333d0cbd | de 1607 ops #19cadaf2dca378eb",
    "JsonLike/media-content cut 1: Malformed(\"unexpected end of text\") after 4 ops #2638518368e7ebe4",
    "JsonLike/media-content cut 350: Malformed(\"unexpected end of text\") after 394 ops #a867fbeab30c604c",
    "JsonLike/media-content cut 700: Malformed(\"unexpected end of text\") after 914 ops #21b4760c43052503",
    "JsonLike/media-content cut 1400: Malformed(\"unexpected end of text\") after 1604 ops #8f3b89d2a80f600d",
];

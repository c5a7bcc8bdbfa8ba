//! Frozen fixtures for the timing models behind Fig. 3, Fig. 10, Fig. 11
//! and Table IV.
//!
//! `runners::run_software` replays each software backend's narrated ops
//! through `sim::Cpu` (cache hierarchy plus DRAM ledger);
//! `runners::run_cereal` drives the SU/DU cycle model over the same DRAM
//! ledger. Every `f64` of the resulting `SdMeasure` is pinned by its bits,
//! plus the stream byte count, for Java S/D, Kryo, Skyway, Cereal and
//! Cereal Vanilla on the six Table II micro shapes at `Scale::Tiny`, with
//! the micro suite's request count. Any change to the cache model, the
//! DRAM walk or the cycle model that moves a simulated figure by one ulp
//! fails here.

use cereal_bench::micro_suite::REQUESTS;
use cereal_bench::{repeat_root, run_cereal, run_software, SdMeasure};
use cereal_repro::accel::CerealConfig;
use cereal_repro::baselines::{JavaSd, Kryo, Skyway};
use cereal_repro::bench_workloads::{MicroBench, Scale};

/// One fixture line: every simulated field by its bits, then the bytes.
fn describe(bench: MicroBench, m: &SdMeasure) -> String {
    let fields = [
        ("ser_ns", m.ser_ns),
        ("de_ns", m.de_ns),
        ("ser_ipc", m.ser_ipc),
        ("de_ipc", m.de_ipc),
        ("ser_llc", m.ser_llc_miss_rate),
        ("ser_bw", m.ser_bw_util),
        ("de_bw", m.de_bw_util),
        ("ser_uj", m.ser_energy_uj),
        ("de_uj", m.de_energy_uj),
    ];
    let mut line = format!("{}/{}:", m.name, bench.name());
    for (name, v) in fields {
        line += &format!(" {name} {:016x}", v.to_bits());
    }
    line + &format!(" bytes {}", m.bytes)
}

/// The micro suite's five runs per shape, in its order and on one heap.
fn observe_all() -> Vec<String> {
    let mut lines = Vec::new();
    for bench in MicroBench::all() {
        let (mut heap, reg, root) = bench.build(Scale::Tiny);
        let roots = repeat_root(root, REQUESTS);
        let runs = [
            run_software(&JavaSd::new(), &mut heap, &reg, &roots),
            run_software(&Kryo::new(), &mut heap, &reg, &roots),
            run_software(&Skyway::new(), &mut heap, &reg, &roots),
            run_cereal(CerealConfig::paper(), &mut heap, &reg, &roots),
            run_cereal(CerealConfig::vanilla(), &mut heap, &reg, &roots),
        ];
        lines.extend(runs.iter().map(|m| describe(bench, m)));
    }
    lines
}

#[test]
fn sd_measures_match_fixtures() {
    let observed = observe_all();
    for (i, (got, want)) in observed.iter().zip(EXPECTED).enumerate() {
        assert_eq!(got, want, "fixture line {i}");
    }
    assert_eq!(observed.len(), EXPECTED.len(), "fixture line count");
}

const EXPECTED: &[&str] = &[
    "Java/Tree-narrow: ser_ns 4126ed9c2222229f de_ns 41239dc2222222e4 ser_ipc 3fd8b051f1497088 de_ipc 3fdbb94af0109e86 ser_llc 3fefef53e62f53e6 ser_bw 3f91534d590ffb30 de_bw 3f91e84bc6ff770a ser_uj 40f9adf68ca11c89 de_uj 40f5f85e8ca11cd6 bytes 30784",
    "Kryo/Tree-narrow: ser_ns 410906d7a4fa5187 de_ns 40cefb36c16c13c7 ser_ipc 3fd6bd826b25626d de_ipc 400f0a95a8f3e720 ser_llc 3ff0000000000000 ser_bw 3f90f2d3f41cb4d9 de_bw 3f9160462b7fb3f7 ser_uj 40dc07a9d77ec1b6 de_uj 40a1597ad2b7673c bytes 22360",
    "Skyway/Tree-narrow: ser_ns 411598258e38e283 de_ns 40c8a2aaaaaaaaaa ser_ipc 3fd08bae5e884b24 de_ipc 400a22a37347fbac ser_llc 3ff0000000000000 ser_bw 3f924dcca77ef7ec de_bw 3f99d7f302b4c502 ser_uj 40e82f8638e38d0e de_uj 409b977777777776 bytes 97600",
    "Cereal/Tree-narrow: ser_ns 40d52ce2aaaaaaa5 de_ns 40a1b2aaaaaaaaab ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fc75e6eab139c55 de_bw 3feccfa1fa463726 ser_uj 403ab4985da10c94 de_uj 400651e369381993 bytes 58208",
    "Cereal Vanilla/Tree-narrow: ser_ns 40e6245c00000002 de_ns 40a77b5555555555 ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fb89b5519b7dbf2 de_bw 3fe5b80ec362b702 ser_uj 404becb2f449129a de_uj 400d9d3e57e2ce4e bytes 58208",
    "Java/Tree-wide: ser_ns 414940126666667f de_ns 4146cbccd2d82d86 ser_ipc 3fe1bc47907b95f8 de_ipc 3fe2a8035b8362ed ser_llc 3fe6f7e0fc95e5d6 ser_bw 3f8d2b81fa515b64 de_bw 3f8e2541fa27450c ser_uj 411c47c2b020c4b7 de_uj 411988189a39cc96 bytes 98656",
    "Kryo/Tree-wide: ser_ns 41210ce199999007 de_ns 40f5d1c293e942fa ser_ipc 3fe4bd7b17d7fc92 de_ipc 400e703541312399 ser_llc 3ff0000000000000 ser_bw 3f8c40b5be923424 de_bw 3f84d57c6ce2769b ser_uj 40f318aac08307b5 de_uj 40c8700d208a5f7e bytes 79432",
    "Skyway/Tree-wide: ser_ns 4134f0a4fffffd07 de_ns 40f04c271c71c71c ser_ipc 3fd6e10c047c5f43 de_ipc 400a48db04aed297 ser_llc 3feac50ac2b8eda3 ser_bw 3f908890cf9a1897 de_bw 3f9668ad56fb1f00 ser_uj 410773ebfffffcab de_uj 40c240cfa4fa4fa4 bytes 448576",
    "Cereal/Tree-wide: ser_ns 40e66fa455555570 de_ns 40c0ec8000000001 ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fd15d8d10dad105 de_bw 3feddd3c84292a31 ser_uj 404c4ba46b57f63a de_uj 402557f8012dfd6a bytes 172424",
    "Cereal Vanilla/Tree-wide: ser_ns 40fa19b22aaaaaa7 de_ns 40c5a88000000000 ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fbddaddafdded48 de_bw 3fe756556ef17e8d ser_uj 40607556a7a15281 de_uj 402b507e24c90d23 bytes 172424",
    "Java/List-small: ser_ns 411203a127d27c7a de_ns 410d866a4fa4fb5c ser_ipc 3fd66ffe8610cae7 de_ipc 3fda87ab5dffe331 ser_llc 3ff0000000000000 ser_bw 3f9197dc23b700e8 de_bw 3f922fee8fcbf8bc ser_uj 40e42d066a0a76ef de_uj 40e088b66a0a7848 bytes 14592",
    "Kryo/List-small: ser_ns 40f896a0b60b606b de_ns 40b7d3fbbbbbbb40 ser_ipc 3fd2d1cfb1e57389 de_ipc 400f5e1f2b898294 ser_llc 3ff0000000000000 ser_bw 3f91c6a83f750d41 de_bw 3f9448c1e22a59d0 ser_uj 40cb89fbad2b763a de_uj 408aaffb38a94c99 bytes 10248",
    "Skyway/List-small: ser_ns 4101621aaaaaab0d de_ns 40b45f0000000000 ser_ipc 3fd01e95c5f5396d de_ipc 4008e01094cb7284 ser_llc 3ff0000000000000 ser_bw 3f928ef1251947bb de_bw 3f9a583265f11c10 ser_uj 40d3781dddddde4c de_uj 4086d0cccccccccd bytes 41024",
    "Cereal/List-small: ser_ns 40c1053aaaaaaaad de_ns 40912bffffffffff ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fd008df2747aea6 de_bw 3fea4d7db59d63a0 ser_uj 40257727fa61a226 de_uj 3ff5a80d654350b6 bytes 28320",
    "Cereal Vanilla/List-small: ser_ns 40d660e2aaaaaaaa de_ns 4095f7ffffffffff ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fb867acc2efb47e de_bw 3fe48f3bd7b348f5 ser_uj 403c39082eea3feb de_uj 3ffbb4c13d4c91a7 bytes 28320",
    "Java/List-large: ser_ns 4130db5a77777529 de_ns 412babdcb60b60fb ser_ipc 3fd7f09135d3cee9 de_ipc 3fdc472e00fa451a ser_llc 3fef8f11cafc0174 ser_bw 3f9142946e4ca270 de_bw 3f91ef08454166e6 ser_uj 4102e1321f671294 de_uj 40fefdecf4d98b56 bytes 57600",
    "Kryo/List-large: ser_ns 4117436b8e38e239 de_ns 40d7ce98888886d0 ser_ipc 3fd3dfecb574e905 de_ipc 400f5f0f404c61da ser_llc 3ff0000000000000 ser_bw 3f913e61874ae0e9 de_bw 3f943276fe482863 ser_uj 40ea0e120fedca2b de_uj 40aaa9f2846ff326 bytes 40968",
    "Skyway/List-large: ser_ns 411fa1ef1c71c61c de_ns 40d4ee31c71c71c7 ser_ipc 3fd1b4e205a0b649 de_ipc 4008353ec10f6000 ser_llc 3ff0000000000000 ser_bw 3f920204c4670177 de_bw 3f99856288b59b56 ser_uj 40f1b6d7d27d2742 de_uj 40a7712d82d82d82 bytes 163904",
    "Cereal/List-large: ser_ns 40e0aaaeaaaaaabb de_ns 40ae475555555556 ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fd058c8e073a11c de_bw 3fedb78fcc36de3f ser_uj 404504f6538b0938 de_uj 401317d45ed91b00 bytes 112416",
    "Cereal Vanilla/List-large: ser_ns 40f613435555554c de_ns 40b473ffffffffff ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fb8afe639f609ac de_bw 3fe5ff165c2da200 ser_uj 405bd72348c87f0c de_uj 4019cb6ce5dc6849 bytes 112416",
    "Java/Graph-sparse: ser_ns 410b7dc1eeeef022 de_ns 41050bf7a4fa504a ser_ipc 3fd50ef83ecdedd4 de_ipc 3fda26f0177fe110 ser_llc 3ff0000000000000 ser_bw 3f91ad13e6691c3f de_bw 3f927b0e3df42447 ser_uj 40deca49d867c544 de_uj 40d79286007482e2 bytes 15456",
    "Kryo/Graph-sparse: ser_ns 40fe39e111111061 de_ns 40dc782eeeeeee34 ser_ipc 3fd22885cd373dfb de_ipc 3feeb495d54220d9 ser_llc 3ff0000000000000 ser_bw 3f91f63c27bf1f6e de_bw 3f9315b3c344adad ser_uj 40d0ed365b7a3221 de_uj 40afe2c3ece2a463 bytes 7784",
    "Skyway/Graph-sparse: ser_ns 4104301b8e38e418 de_ns 40b7066000000000 ser_ipc 3fd00c113231442d de_ipc 400995d110690e2b ser_llc 3ff0000000000000 ser_bw 3f929de2e3cc7fd3 de_bw 3f9a0f09beb0b5fa ser_uj 40d69c47d27d286c de_uj 4089c9b333333333 bytes 45696",
    "Cereal/Graph-sparse: ser_ns 40c9dc9d55555558 de_ns 40922aaaaaaaaaab ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fc4d68389ca320c de_bw 3feb3f69b02593f6 ser_uj 40304ed2649877a3 de_uj 3ff6e93a32728aa8 bytes 30000",
    "Cereal Vanilla/Graph-sparse: ser_ns 40da21e400000001 de_ns 40973eaaaaaaaaab ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fb7e6143fc26dcb de_bw 3fe54b8b36c77ff9 ser_uj 40407a81813f2fc1 de_uj 3ffd50bbb66ba90c bytes 30000",
    "Java/Graph-dense: ser_ns 41334cf45dddd15a de_ns 41320da556c15fef ser_ipc 3fdaf317e4f5fdbe de_ipc 3fd9fda132430f91 ser_llc 3fed7ba4bb50ce8c ser_bw 3f9084e21d1e5c81 de_bw 3f91746f2213141c ser_uj 41059dde7d9c46a2 de_uj 4104383e4caf9ea5 bytes 174176",
    "Kryo/Graph-dense: ser_ns 4131186f5a4f9ab7 de_ns 41302cfe05b05319 ser_ipc 3fdbb44da8d6f1f0 de_ipc 3fdafc021e2c2a36 ser_llc 3fedfd8f6c387681 ser_bw 3f90c8770f0421bc de_bw 3f912e25ab0d34f5 ser_uj 4103259b6f63659a de_uj 41021de94e0d29de bytes 71816",
    "Skyway/Graph-dense: ser_ns 4130ddbfd1c71b76 de_ns 40e5416155555555 ser_ipc 3fd4c7e84f0bc3fe de_ipc 400f0351aab216f1 ser_llc 3fed944734e85ab0 ser_bw 3f91a15d2187430a de_bw 3f96f97cf8d2f9d4 ser_uj 4102e3e113e93d7a de_uj 40b7ce5888888888 bytes 299648",
    "Cereal/Graph-dense: ser_ns 40ea5d0100000034 de_ns 40b6600000000000 ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fd6327d6b641277 de_bw 3fed8d962ae7afea ser_uj 40509fc80f55de79 de_uj 401c37ea5218d188 bytes 106104",
    "Cereal Vanilla/Graph-dense: ser_ns 410ddae04000001c de_ns 40bc545555555555 ser_ipc 0000000000000000 de_ipc 0000000000000000 ser_llc 0000000000000000 ser_bw 3fb4f53d8853361e de_bw 3fe757697c318f4e ser_uj 4072d3704955b478 de_uj 4021dd2ba942cb9e bytes 106104",
];

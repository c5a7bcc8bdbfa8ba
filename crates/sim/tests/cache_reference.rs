//! Equivalence of `sim::Cache` with the timestamp-LRU model it replaced.
//!
//! The production cache keeps each set as recency-ordered tag words; the
//! reference below keeps per-line valid/dirty bits and LRU stamps and
//! evicts "the first invalid way, else the smallest stamp". Way positions
//! are not observable, so the two must agree on everything that is: the
//! hit/miss outcome of every access, the dirty address every fill
//! evicts, and the hit/miss/write-back counters. Seeded streams of mixed
//! reads and writes drive both over several geometries and over the full
//! Table I hierarchy.

use sdheap::rng::Rng;
use sim::{Cache, Hierarchy, LevelConfig};

/// The timestamp-LRU cache model, kept as the golden reference.
mod reference {
    use sim::{HitLevel, LevelConfig};

    #[derive(Clone, Debug)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
    }

    pub struct Cache {
        cfg: LevelConfig,
        sets: Vec<Vec<Line>>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl Cache {
        pub fn new(cfg: LevelConfig) -> Self {
            let nsets = (cfg.capacity / (cfg.line * cfg.ways as u64)) as usize;
            let line = Line {
                tag: 0,
                valid: false,
                dirty: false,
                lru: 0,
            };
            Cache {
                cfg,
                sets: vec![vec![line; cfg.ways]; nsets],
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn index(&self, addr: u64) -> (usize, u64) {
            let block = addr / self.cfg.line;
            (
                (block as usize) % self.sets.len(),
                block / self.sets.len() as u64,
            )
        }

        pub fn access(&mut self, addr: u64, write: bool) -> bool {
            self.tick += 1;
            let (set_idx, tag) = self.index(addr);
            for line in self.sets[set_idx].iter_mut() {
                if line.valid && line.tag == tag {
                    line.lru = self.tick;
                    line.dirty |= write;
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            false
        }

        pub fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
            self.tick += 1;
            let line_bytes = self.cfg.line;
            let nsets = self.sets.len() as u64;
            let (set_idx, tag) = self.index(addr);
            let victim = self.sets[set_idx]
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru } else { 0 })
                .expect("ways > 0");
            let evicted = (victim.valid && victim.dirty)
                .then(|| (victim.tag * nsets + set_idx as u64) * line_bytes);
            victim.tag = tag;
            victim.valid = true;
            victim.dirty = write;
            victim.lru = self.tick;
            evicted
        }

        pub fn hits(&self) -> u64 {
            self.hits
        }

        pub fn misses(&self) -> u64 {
            self.misses
        }
    }

    /// The Table I hierarchy over reference caches.
    pub struct Hierarchy {
        pub l1: Cache,
        pub l2: Cache,
        pub l3: Cache,
        pub writebacks: u64,
    }

    impl Hierarchy {
        pub fn i7_7820x() -> Self {
            let level = |capacity, ways| {
                Cache::new(LevelConfig {
                    capacity,
                    ways,
                    line: 64,
                })
            };
            Hierarchy {
                l1: level(32 << 10, 8),
                l2: level(1 << 20, 16),
                l3: level(11 << 20, 11),
                writebacks: 0,
            }
        }

        pub fn access(&mut self, addr: u64, write: bool) -> HitLevel {
            if self.l1.access(addr, write) {
                return HitLevel::L1;
            }
            if self.l2.access(addr, write) {
                self.l1.fill(addr, write);
                return HitLevel::L2;
            }
            if self.l3.access(addr, write) {
                self.l2.fill(addr, write);
                self.l1.fill(addr, write);
                return HitLevel::L3;
            }
            if self.l3.fill(addr, write).is_some() {
                self.writebacks += 1;
            }
            self.l2.fill(addr, write);
            self.l1.fill(addr, write);
            HitLevel::Memory
        }

        pub fn access_range(&mut self, addr: u64, bytes: u64, write: bool) -> HitLevel {
            let first = addr / 64;
            let last = (addr + bytes.max(1) - 1) / 64;
            let mut worst = HitLevel::L1;
            for block in first..=last {
                worst = worst.max(self.access(block * 64, write));
            }
            worst
        }
    }
}

/// Draws addresses from `lines` 64 B lines above one of three bases
/// (so tags span a wide range), half the time from a small hot subset
/// so sets see reuse as well as conflict evictions.
struct Stream {
    rng: Rng,
    lines: u64,
    hot: u64,
}

impl Stream {
    fn new(seed: u64, lines: u64) -> Self {
        Stream {
            rng: Rng::new(seed),
            lines,
            hot: (lines / 8).max(4),
        }
    }

    fn next(&mut self) -> (u64, bool) {
        const BASES: [u64; 3] = [0, 0x7000_0000, 0x2_0000_0000];
        let base = BASES[self.rng.gen_range_usize(0, BASES.len())];
        let span = if self.rng.gen_bool(0.5) {
            self.hot
        } else {
            self.lines
        };
        let line = self.rng.gen_range_u64(0, span);
        let offset = self.rng.gen_range_u64(0, 64);
        (base + line * 64 + offset, self.rng.gen_bool(0.3))
    }
}

fn geometry(sets: u64, ways: usize) -> LevelConfig {
    LevelConfig {
        capacity: sets * ways as u64 * 64,
        ways,
        line: 64,
    }
}

/// Drives both models with one stream, filling on every miss as the
/// hierarchy does, and compares every observable after every step.
fn check_level(cfg: LevelConfig, seed: u64, steps: usize) {
    let lines = cfg.capacity / cfg.line;
    let mut new = Cache::new(cfg);
    let mut old = reference::Cache::new(cfg);
    // Footprint: four capacities' worth of lines per base.
    let mut stream = Stream::new(seed, 4 * lines);
    let mut dirty_evictions = 0u64;
    for step in 0..steps {
        let (addr, write) = stream.next();
        let hit = new.access(addr, write);
        assert_eq!(hit, old.access(addr, write), "{cfg:?} step {step}: hit");
        if !hit {
            let evicted = new.fill(addr, write);
            assert_eq!(
                evicted,
                old.fill(addr, write),
                "{cfg:?} step {step}: eviction"
            );
            dirty_evictions += u64::from(evicted.is_some());
        }
        assert_eq!(new.hits(), old.hits(), "{cfg:?} step {step}: hits");
        assert_eq!(new.misses(), old.misses(), "{cfg:?} step {step}: misses");
    }
    assert!(new.hits() > 0, "{cfg:?}: the stream must reuse lines");
    assert!(
        dirty_evictions > 0,
        "{cfg:?}: the stream must evict dirty lines"
    );
}

#[test]
fn small_set_associative_matches_reference() {
    check_level(geometry(8, 2), 0xcace_0001, 20_000);
}

#[test]
fn fully_associative_matches_reference() {
    check_level(geometry(1, 11), 0xcace_0002, 20_000);
}

#[test]
fn l1_geometry_matches_reference() {
    check_level(geometry(64, 8), 0xcace_0003, 50_000);
}

#[test]
fn table_i_l3_matches_reference() {
    check_level(geometry(16_384, 11), 0xcace_0004, 400_000);
}

/// The whole Table I hierarchy over a 16 MB footprint (past the 11 MB
/// L3): single-line and range accesses, sequential sweeps mixed with
/// random reuse, so dirty L3 victims are written back.
#[test]
fn hierarchy_matches_reference_past_the_llc() {
    const FOOTPRINT: u64 = 16 << 20;
    let mut new = Hierarchy::i7_7820x();
    let mut old = reference::Hierarchy::i7_7820x();
    let mut rng = Rng::new(0xcace_0005);
    let mut cursor = 0u64;
    let mut served = [0u64; 4];
    for step in 0..600_000 {
        let write = rng.gen_bool(0.4);
        let addr = if rng.gen_bool(0.5) {
            cursor = (cursor + 64) % FOOTPRINT;
            cursor
        } else {
            rng.gen_range_u64(0, FOOTPRINT)
        };
        let (got, want) = if step % 7 == 0 {
            let bytes = rng.gen_range_u64(0, 200);
            (
                new.access_range(addr, bytes, write),
                old.access_range(addr, bytes, write),
            )
        } else {
            (new.access(addr, write), old.access(addr, write))
        };
        assert_eq!(got, want, "step {step}: serving level");
        assert_eq!(new.writebacks, old.writebacks, "step {step}: write-backs");
        served[got as usize] += 1;
    }
    for (level, (n, o)) in [(&new.l1, &old.l1), (&new.l2, &old.l2), (&new.l3, &old.l3)]
        .into_iter()
        .enumerate()
    {
        assert_eq!(
            (n.hits(), n.misses()),
            (o.hits(), o.misses()),
            "L{}",
            level + 1
        );
    }
    assert!(new.writebacks > 0, "dirty L3 evictions must occur");
    assert!(
        served.iter().all(|&n| n > 0),
        "every level must serve some accesses: {served:?}"
    );
}

//! Equivalence of `sim::ledger::BucketLedger` with the hash-map walk it
//! replaced.
//!
//! The production ledger keeps booked bytes in a dense window of buckets
//! and starts every walk at its frontier, the first bucket that may not
//! be full. The reference below keeps one map entry per touched bucket
//! and walks every bucket from the issue bucket on, as `Dram`, `Disk` and
//! `Link` each did before they shared one ledger. A skipped bucket is
//! exactly full, so it could only have contributed a `free == 0.0` step:
//! the two must return the same fill point, bit for bit, for every
//! booking. Seeded streams drive both over the DRAM, disk and link
//! geometries in ascending and descending issue order, across far-future
//! gaps and back into the saturated past, with bookings from one byte to
//! several buckets.

use sdheap::rng::Rng;
use sim::ledger::BucketLedger;
use sim::{Disk, DiskConfig, Link, LinkConfig};

/// The per-bucket map walk, kept as the golden reference.
mod reference {
    use std::collections::HashMap;

    pub struct Ledger {
        bucket_ns: f64,
        bytes_per_ns: f64,
        used: HashMap<u64, f64>,
    }

    impl Ledger {
        pub fn new(bucket_ns: f64, bytes_per_ns: f64) -> Self {
            Ledger {
                bucket_ns,
                bytes_per_ns,
                used: HashMap::new(),
            }
        }

        pub fn book(&mut self, start_ns: f64, bytes: u64) -> f64 {
            let cap = self.bucket_ns * self.bytes_per_ns;
            let mut bucket = (start_ns.max(0.0) / self.bucket_ns) as u64;
            let mut left = bytes as f64;
            loop {
                let used = self.used.entry(bucket).or_insert(0.0);
                let free = cap - *used;
                if free >= left {
                    *used += left;
                    return bucket as f64 * self.bucket_ns + *used / self.bytes_per_ns;
                }
                left -= free;
                *used = cap;
                bucket += 1;
            }
        }
    }
}

/// Bucket width and rate of every model that books through the ledger.
const GEOMETRIES: [(&str, f64, f64); 6] = [
    ("dram channel", 100.0, 19.2),
    ("nvme", 1000.0, 3.0),
    ("hdd", 1000.0, 0.16),
    ("10GbE", 1000.0, 1.25),
    ("40GbE", 1000.0, 5.0),
    ("100GbE", 1000.0, 12.5),
];

/// How the next issue time moves.
#[derive(Clone, Copy)]
enum Order {
    /// A step forward.
    Ascend,
    /// A step back, pinned at zero.
    Descend,
    /// Time zero.
    Zero,
    /// Mostly ascending, with steps back, far-future gaps, and single
    /// bookings into the (saturated) past.
    Mixed,
}

/// Issue times and sizes for one geometry. Steps scale with the
/// booking's service time, so the offered load stays below the
/// resource's rate and the reference walk's backlog stays short.
struct Stream {
    rng: Rng,
    bucket_ns: f64,
    rate: f64,
    now: f64,
}

impl Stream {
    fn next(&mut self, order: Order) -> (f64, u64) {
        // One byte up to four buckets' worth.
        let cap = (self.bucket_ns * self.rate) as u64;
        let bytes = match self.rng.gen_range_u64(0, 3) {
            0 => self.rng.gen_range_u64(1, 65),
            1 => self.rng.gen_range_u64(1, cap + 2),
            _ => self.rng.gen_range_u64(1, 4 * cap),
        };
        let step = self.rng.gen_range_f64(0.0, 2.5) * bytes as f64 / self.rate;
        let roll = self.rng.gen_f64();
        match order {
            Order::Ascend => self.now += step,
            Order::Descend => self.now = (self.now - step).max(0.0),
            Order::Zero => self.now = 0.0,
            Order::Mixed if roll < 0.90 => self.now += step,
            Order::Mixed if roll < 0.96 => self.now = (self.now - step).max(0.0),
            Order::Mixed if roll < 0.965 => {
                self.now += self.rng.gen_range_f64(1e3, 1e5) * self.bucket_ns
            }
            Order::Mixed if roll < 0.98 => return (0.0, bytes),
            Order::Mixed => return (self.rng.gen_range_f64(0.0, self.now), bytes),
        }
        (self.now, bytes)
    }
}

/// Drives the production ledger and the reference with one stream per
/// geometry, starting at bucket `start_bucket` and running each
/// `(order, steps)` phase in turn, and compares every fill point by its
/// bits. Returns each geometry's final frontier.
fn check(seed: u64, start_bucket: f64, phases: &[(Order, usize)]) -> Vec<u64> {
    GEOMETRIES
        .iter()
        .enumerate()
        .map(|(g, &(name, bucket_ns, rate))| {
            let mut new = BucketLedger::new(bucket_ns, rate);
            let mut old = reference::Ledger::new(bucket_ns, rate);
            let mut stream = Stream {
                rng: Rng::new(seed + g as u64),
                bucket_ns,
                rate,
                now: start_bucket * bucket_ns,
            };
            for (phase, &(order, steps)) in phases.iter().enumerate() {
                for step in 0..steps {
                    let (t, bytes) = stream.next(order);
                    let got = new.book(t, bytes);
                    let want = old.book(t, bytes);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name} phase {phase} step {step}: {bytes} B at {t} ns \
                         filled at {got}, want {want}"
                    );
                }
            }
            new.frontier()
        })
        .collect()
}

#[test]
fn ascending_issue_matches_reference() {
    check(0x1ed9_0001, 0.0, &[(Order::Ascend, 20_000)]);
}

/// Walks issue times down from bucket 20,000 (a step averages about one
/// bucket), so most bookings land below the window's first bucket and
/// grow it at the front; then books at zero, far below, until the walks
/// start at the frontier.
#[test]
fn descending_issue_below_base_matches_reference() {
    let phases = [(Order::Descend, 15_000), (Order::Zero, 500)];
    let frontiers = check(0x1ed9_0002, 20_000.0, &phases);
    assert!(
        frontiers.iter().all(|&f| f > 0),
        "the skip must be exercised"
    );
}

#[test]
fn far_gaps_and_saturated_past_match_reference() {
    let frontiers = check(0x1ed9_0003, 0.0, &[(Order::Mixed, 20_000)]);
    assert!(
        frontiers.iter().all(|&f| f > 0),
        "the skip must be exercised"
    );
}

#[test]
fn zero_bytes_book_nothing() {
    for &(name, bucket_ns, rate) in &GEOMETRIES {
        let mut l = BucketLedger::new(bucket_ns, rate);
        let mut fresh = reference::Ledger::new(bucket_ns, rate);
        assert_eq!(l.book(-5.0, 0), 0.0, "{name}: start clamps at zero");
        for t in [0.0, 0.5 * bucket_ns, 7.0 * bucket_ns] {
            assert_eq!(
                l.book(t, 0),
                t,
                "{name}: a zero-byte booking fills at its start"
            );
        }
        // Saturate the first buckets, then book nothing inside them.
        let full = l.book(0.0, (3.0 * bucket_ns * rate) as u64);
        assert_eq!(full, fresh.book(0.0, (3.0 * bucket_ns * rate) as u64));
        assert_eq!(l.book(bucket_ns, 0), bucket_ns, "{name}: no queueing");
        // Nothing was booked: the next booking sees the same ledger.
        let a = l.book(bucket_ns, 64);
        let b = fresh.book(bucket_ns, 64);
        assert_eq!(a.to_bits(), b.to_bits(), "{name}");
    }
}

/// `Link::send` and `Disk` accesses are the ledger's fill point under
/// each model's own service floor and latency, as before the models
/// shared one ledger.
#[test]
fn link_and_disk_book_through_the_reference_walk() {
    let mut rng = Rng::new(0x1ed9_0004);
    for cfg in [
        LinkConfig::ten_gbe(),
        LinkConfig::forty_gbe(),
        LinkConfig::hundred_gbe(),
    ] {
        let mut link = Link::new(cfg);
        let mut old = reference::Ledger::new(1000.0, cfg.bytes_per_ns);
        let mut now = 0.0f64;
        for step in 0..10_000 {
            let bytes = rng.gen_range_u64(1, 20_000);
            now += rng.gen_range_f64(0.0, 2.5) * bytes as f64 / cfg.bytes_per_ns;
            // Now and then a send issued in the past, as a message the
            // event loop reaches late.
            let t = if rng.gen_bool(0.05) {
                rng.gen_range_f64(0.0, now)
            } else {
                now
            };
            let want = old.book(t, bytes).max(t + bytes as f64 / cfg.bytes_per_ns) + cfg.latency_ns;
            assert_eq!(link.send(bytes, t).to_bits(), want.to_bits(), "step {step}");
        }
    }
    for cfg in [DiskConfig::nvme(), DiskConfig::ssd(), DiskConfig::hdd()] {
        let mut disk = Disk::new(cfg);
        let mut old = reference::Ledger::new(1000.0, cfg.bytes_per_ns);
        let (mut now, mut head) = (0.0f64, 0u64);
        for step in 0..2_000 {
            let bytes = rng.gen_range_u64(1, 1 << 16);
            now += rng.gen_range_f64(0.0, 2.5) * bytes as f64 / cfg.bytes_per_ns;
            let offset = if rng.gen_bool(0.5) {
                head
            } else {
                rng.gen_range_u64(0, 1 << 30)
            };
            let start = now + if offset == head { 0.0 } else { cfg.seek_ns };
            head = offset + bytes;
            let want = old
                .book(start, bytes)
                .max(start + bytes as f64 / cfg.bytes_per_ns);
            let got = if rng.gen_bool(0.5) {
                disk.read(offset, bytes, now)
            } else {
                disk.write(offset, bytes, now)
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{} step {step}", cfg.name);
        }
    }
}

//! The order-insensitive time-bucket capacity ledger behind every
//! bandwidth model in this crate: one per DRAM channel ([`crate::dram`]),
//! one per disk ([`crate::disk`]) and one per network link
//! ([`crate::net`]).
//!
//! Time is cut into fixed buckets, each able to carry
//! `bucket_ns × bytes_per_ns` bytes. A booking fills capacity from its
//! start bucket on, spilling into later buckets when one is full, and
//! returns the fill point of its last byte. Because a booking only ever
//! takes free capacity, requesters simulated one after another overlap in
//! simulated time exactly as concurrent hardware would; a plain
//! "resource-free-at" clock would falsely serialize them.

use std::collections::VecDeque;

/// A bucketed capacity ledger.
///
/// ```
/// use sim::ledger::BucketLedger;
/// let mut l = BucketLedger::new(1000.0, 1.0); // 1 µs buckets, 1 B/ns
/// assert_eq!(l.book(0.0, 500), 500.0);
/// assert_eq!(l.book(0.0, 700), 1200.0, "the second booking queues");
/// assert_eq!(l.book(250.0, 0), 250.0, "zero bytes book nothing");
/// ```
///
/// Booked bytes live in a dense window of buckets starting at `base`.
/// Every bucket below `frontier` is full, so a walk starts at the
/// frontier at the latest: a full bucket would only contribute a
/// `free == 0.0` step. Buckets from the frontier up to `base`, and past
/// the window's end, were never booked and read 0.0. The window drops
/// the buckets the frontier passes, and grows at either end in amortized
/// O(1) per bucket, so a descending issue order costs no more than an
/// ascending one.
#[derive(Clone, Debug)]
pub struct BucketLedger {
    bucket_ns: f64,
    bytes_per_ns: f64,
    /// Bytes one bucket carries.
    cap: f64,
    /// Bucket index of `window[0]`; never below `frontier`.
    base: u64,
    /// Booked bytes per bucket from `base` on.
    window: VecDeque<f64>,
    /// Skip pointer: every bucket below this index is full.
    frontier: u64,
}

impl BucketLedger {
    /// An empty ledger of `bucket_ns`-wide buckets over a resource that
    /// moves `bytes_per_ns`.
    pub fn new(bucket_ns: f64, bytes_per_ns: f64) -> Self {
        BucketLedger {
            bucket_ns,
            bytes_per_ns,
            cap: bucket_ns * bytes_per_ns,
            base: 0,
            window: VecDeque::new(),
            frontier: 0,
        }
    }

    /// Books `bytes` of capacity from `start_ns` (clamped at 0) on and
    /// returns the time the last byte fills: its bucket's start plus the
    /// bucket's cumulative fill at the resource's rate. A zero-byte
    /// booking takes no capacity and returns the clamped start.
    pub fn book(&mut self, start_ns: f64, bytes: u64) -> f64 {
        let start_ns = start_ns.max(0.0);
        if bytes == 0 {
            return start_ns;
        }
        let mut bucket = ((start_ns / self.bucket_ns) as u64).max(self.frontier);
        if self.window.is_empty() {
            self.base = bucket;
        }
        while bucket < self.base {
            self.base -= 1;
            self.window.push_front(0.0);
        }
        let first = bucket;
        let mut left = bytes as f64;
        let finish = loop {
            let i = (bucket - self.base) as usize;
            if i >= self.window.len() {
                self.window.resize(i + 1, 0.0);
            }
            let used = &mut self.window[i];
            let free = self.cap - *used;
            if free >= left {
                *used += left;
                break bucket as f64 * self.bucket_ns + *used / self.bytes_per_ns;
            }
            left -= free;
            *used = self.cap;
            bucket += 1;
        };
        // The walk saturated [first, bucket); if it started at the
        // frontier, everything below `bucket` is now full. `base` was at
        // most `first` and never below the old frontier, so it equals
        // `first` and the saturated buckets are the window's front.
        if first == self.frontier && bucket > first {
            self.window.drain(..(bucket - first) as usize);
            self.base = bucket;
            self.frontier = bucket;
        }
        finish
    }

    /// The skip pointer: every bucket below this index is full.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }
}

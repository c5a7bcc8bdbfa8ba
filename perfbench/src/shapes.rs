//! Seeded Table II shapes at the benchmark's own sizes.
//!
//! `workloads::MicroBench::build` has a fixed internal seed and three
//! fixed scales, so the benchmark builds the same tree, list and graph
//! shapes itself with `sdheap::GraphBuilder`. The seed picks payload
//! values and graph edges; node counts, and so the amount of work, do not
//! depend on it.

use sdheap::builder::Init;
use sdheap::rng::Rng;
use sdheap::{
    isomorphic_with, Addr, FieldKind, GraphBuilder, Heap, IsoOptions, KlassRegistry, ValueType,
};

/// Destination-heap base for reconstructions, clear of every source heap
/// (the base `runners` uses).
pub const DST_BASE: Addr = Addr(0x40_0000_0000);

/// Whether the graph rebuilt at `back` in `dst` is isomorphic to the one
/// at `root` in `src`. Identity hashes are compared only when the backend
/// preserves them (header-copying backends do; re-allocating ones don't).
pub fn same_graph(
    src: &Heap,
    reg: &KlassRegistry,
    root: Addr,
    dst: &Heap,
    back: Addr,
    identity: bool,
) -> bool {
    let opts = IsoOptions {
        check_identity_hash: identity,
    };
    isomorphic_with(src, reg, root, dst, back, opts)
}

/// One generated object graph.
pub struct Graph {
    /// Display name with its size.
    pub name: String,
    /// The heap holding it.
    pub heap: Heap,
    /// Its classes.
    pub reg: KlassRegistry,
    /// The root object.
    pub root: Addr,
}

/// Payload values stay below 2^20 whatever the seed, so packed stream
/// sizes do not drift with it.
fn payload(rng: &mut Rng) -> u64 {
    rng.gen_range_u64(0, 1 << 20)
}

/// Heap budget for `objects` objects of up to `words` words each, with
/// the 2× headroom reconstruction needs.
fn capacity(objects: usize, words: usize) -> u64 {
    ((objects * words * 8) as u64 * 2).max(1 << 16)
}

/// A `fanout`-ary tree of `count` nodes: a payload and `fanout` child
/// references per node, built bottom-up level by level.
pub fn tree(name: &str, fanout: usize, count: usize, rng: &mut Rng) -> Graph {
    let mut b = GraphBuilder::new(capacity(count, 4 + fanout));
    let kinds: Vec<FieldKind> = std::iter::once(FieldKind::Value(ValueType::Long))
        .chain(std::iter::repeat_n(FieldKind::Ref, fanout))
        .collect();
    let node = b.klass(format!("TreeNode{fanout}"), kinds);
    let mut levels = Vec::new();
    let (mut total, mut width) = (0usize, 1usize);
    while total < count {
        let take = width.min(count - total);
        levels.push(take);
        total += take;
        width = width.saturating_mul(fanout);
    }
    let mut below: Vec<Addr> = Vec::new();
    for &n in levels.iter().rev() {
        let mut children = below.iter().copied();
        let mut level = Vec::with_capacity(n);
        for _ in 0..n {
            let mut inits = vec![Init::Val(payload(rng))];
            inits.extend((0..fanout).map(|_| children.next().map_or(Init::Null, Init::Ref)));
            level.push(b.object(node, &inits).expect("heap sized for the tree"));
        }
        below = level;
    }
    let root = below[0];
    let (heap, reg) = b.finish();
    Graph {
        name: format!("{name}({count})"),
        heap,
        reg,
        root,
    }
}

/// A singly linked list of `count` nodes.
pub fn list(name: &str, count: usize, rng: &mut Rng) -> Graph {
    let mut b = GraphBuilder::new(capacity(count, 5));
    let node = b.klass(
        "ListNode",
        vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
    );
    let mut head = b
        .object(node, &[Init::Val(payload(rng)), Init::Null])
        .expect("sized");
    for _ in 1..count {
        head = b
            .object(node, &[Init::Val(payload(rng)), Init::Ref(head)])
            .expect("sized");
    }
    let (heap, reg) = b.finish();
    Graph {
        name: format!("{name}({count})"),
        heap,
        reg,
        root: head,
    }
}

/// A random directed graph: `nodes` nodes with an `edges`-slot adjacency
/// array each, every slot aimed at a seeded random node, all rooted from
/// a spine array so every node is reachable.
pub fn graph(name: &str, nodes: usize, edges: usize, rng: &mut Rng) -> Graph {
    let mut b = GraphBuilder::new(capacity(nodes, 10 + edges));
    let node = b.klass(
        "GraphNode",
        vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
    );
    let adj = b.array_klass("GraphNode[]", FieldKind::Ref);
    let addrs: Vec<Addr> = (0..nodes)
        .map(|_| {
            b.object(node, &[Init::Val(payload(rng)), Init::Null])
                .expect("sized")
        })
        .collect();
    for &a in &addrs {
        let targets: Vec<Addr> = (0..edges)
            .map(|_| addrs[rng.gen_range_usize(0, nodes)])
            .collect();
        let arr = b.ref_array(adj, &targets).expect("sized");
        b.link(a, 1, arr);
    }
    let spine = b.ref_array(adj, &addrs).expect("sized");
    let root = b
        .object(node, &[Init::Val(payload(rng)), Init::Ref(spine)])
        .expect("sized");
    let (heap, reg) = b.finish();
    Graph {
        name: format!("{name}({nodes}x{edges})"),
        heap,
        reg,
        root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::{reachable, Reachable};

    #[test]
    fn node_counts_do_not_depend_on_the_seed() {
        for seed in [1, 2] {
            let mut rng = Rng::new(seed);
            let t = tree("t", 3, 40, &mut rng);
            let l = list("l", 30, &mut rng);
            let g = graph("g", 16, 3, &mut rng);
            assert_eq!(
                reachable(&t.heap, &t.reg, t.root, Reachable::DepthFirst).len(),
                40
            );
            assert_eq!(
                reachable(&l.heap, &l.reg, l.root, Reachable::DepthFirst).len(),
                30
            );
            // 16 nodes + 16 adjacency arrays + spine + root.
            assert_eq!(
                reachable(&g.heap, &g.reg, g.root, Reachable::DepthFirst).len(),
                34
            );
        }
    }
}

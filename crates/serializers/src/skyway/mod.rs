//! The Skyway baseline (paper §II).
//!
//! Skyway "transfers an object by a simple memory copy": the serialized
//! body is the raw words of every reachable object — headers included —
//! with two rewrites applied on the way out:
//!
//! * the klass pointer is replaced by a global integer **type ID**
//!   (automatic type registration; no per-class user effort);
//! * every reference is converted from an absolute address to a
//!   **relative address** (byte offset of the target within the
//!   serialized image).
//!
//! Deserialization is one bulk copy followed by a **sequential reference
//! adjustment** walk — the step the paper singles out as Skyway's residual
//! inefficiency and the one Cereal parallelizes away: each object's klass
//! word must be re-resolved and each reference rebased, in stream order,
//! before the next object's layout is even known.
//!
//! Because headers travel with the data, reconstructed objects keep their
//! identity hashes, and the stream is larger than Kryo's ("the object is
//! serialized as is including reference fields and headers").

use crate::api::{SerError, Serializer};
use crate::trace::{TraceSink, Tracer, IN_STREAM_BASE, OUT_STREAM_BASE};
use sdheap::{
    reachable, Addr, ExtWord, Heap, KlassId, KlassRegistry, Reachable, HEADER_WORDS, KLASS_OFFSET,
};
use std::collections::HashMap;

/// Encodes a reference word: 0 = null, otherwise the target's byte offset
/// from the image start + 1. Shared by the Skyway and Archive images.
#[inline]
pub(crate) fn encode_rel(rel: Option<u64>) -> u64 {
    match rel {
        None => 0,
        Some(r) => r + 1,
    }
}

/// Inverse of [`encode_rel`].
#[inline]
pub(crate) fn decode_rel(word: u64) -> Option<u64> {
    if word == 0 {
        None
    } else {
        Some(word - 1)
    }
}

/// The Skyway serializer baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct Skyway;

impl Skyway {
    /// A new instance.
    pub fn new() -> Self {
        Skyway
    }
}

impl Serializer for Skyway {
    fn name(&self) -> &str {
        "Skyway"
    }

    fn serialize(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<u8>, SerError> {
        let mut tracer = Tracer::new(sink);
        let mut out = Vec::new();

        // Phase 1: traversal. Assign each object its relative (byte)
        // address in visit order, recorded in a thread-local hash table.
        let order = reachable(heap, reg, root, Reachable::DepthFirst);
        let mut rel_of: HashMap<Addr, u64> = HashMap::with_capacity(order.len());
        let mut offset = 0u64;
        for &addr in &order {
            // Visited check + header fetch to size the object.
            tracer.hash_lookup();
            tracer.load_word_dep(addr.get());
            tracer.load_word_dep(addr.add_words(KLASS_OFFSET as u64).get());
            rel_of.insert(addr, offset);
            offset += heap.object(reg, addr).size_bytes();
        }
        let total_bytes = offset;

        // Stream header: image size + object count.
        let put = |out: &mut Vec<u8>, tracer: &mut Tracer, bytes: &[u8]| {
            tracer.store_bytes(OUT_STREAM_BASE + out.len() as u64, bytes.len() as u32);
            out.extend_from_slice(bytes);
        };
        put(&mut out, &mut tracer, &(total_bytes as u32).to_le_bytes());
        put(&mut out, &mut tracer, &(order.len() as u32).to_le_bytes());

        // Phase 2: bulk copy with klass-word and reference rewrites.
        for &addr in &order {
            let view = heap.object(reg, addr);
            let id = view.klass_id();
            let layout = view.layout_bits();
            for (w, &is_ref) in layout.iter().enumerate() {
                tracer.load_word(addr.add_words(w as u64).get());
                let word = view.word(w);
                let encoded = if w == KLASS_OFFSET {
                    // Automatic type registration: klass pointer → type ID.
                    tracer.hash_lookup();
                    u64::from(id.get())
                } else if w == sdheap::EXT_OFFSET {
                    // Runtime-private metadata does not travel.
                    0
                } else if is_ref {
                    tracer.hash_lookup();
                    tracer.alu(1);
                    let target = Addr(word);
                    if target.is_null() {
                        encode_rel(None)
                    } else {
                        encode_rel(Some(*rel_of.get(&target).expect("reachable target")))
                    }
                } else {
                    word
                };
                put(&mut out, &mut tracer, &encoded.to_le_bytes());
            }
        }
        Ok(out)
    }

    fn deserialize(
        &self,
        bytes: &[u8],
        reg: &KlassRegistry,
        dst: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> Result<Addr, SerError> {
        let mut tracer = Tracer::new(sink);
        if bytes.len() < 8 {
            return Err(SerError::Malformed("truncated header"));
        }
        tracer.load_bytes(IN_STREAM_BASE, 8);
        let total_bytes =
            u32::from_le_bytes(bytes[0..4].try_into().expect("4")) as u64;
        let object_count = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
        let body = &bytes[8..];
        if body.len() as u64 != total_bytes {
            return Err(SerError::Malformed("body size mismatch"));
        }
        if !total_bytes.is_multiple_of(8) {
            return Err(SerError::Malformed("unaligned body"));
        }

        // Bulk copy: one big sequential read + write.
        let base = dst.alloc_raw((total_bytes / 8) as usize)?;
        for (i, chunk) in body.chunks_exact(8).enumerate() {
            tracer.load_bytes(IN_STREAM_BASE + 8 + i as u64 * 8, 8);
            tracer.store_word(base.add_words(i as u64).get());
            dst.store(
                base.add_words(i as u64),
                u64::from_le_bytes(chunk.try_into().expect("8")),
            );
        }

        // Sequential reference adjustment: object by object, in stream
        // order. Each step depends on the previous object's size, which is
        // only known after its klass word is resolved — the serial chain
        // the paper criticizes.
        let mut cursor = base;
        let end = base.add_bytes(total_bytes);
        let mut seen = 0u32;
        while cursor.get() < end.get() {
            tracer.load_word_dep(cursor.add_words(KLASS_OFFSET as u64).get());
            let raw_id = dst.load(cursor.add_words(KLASS_OFFSET as u64));
            let raw_id = u32::try_from(raw_id)
                .map_err(|_| SerError::Malformed("bad type id"))?;
            if raw_id as usize >= reg.len() {
                return Err(SerError::UnknownClassId(raw_id));
            }
            let id = KlassId(raw_id);
            // Restore the real klass pointer.
            tracer.store_word(cursor.add_words(KLASS_OFFSET as u64).get());
            dst.store(
                cursor.add_words(KLASS_OFFSET as u64),
                reg.meta_addr(id).get(),
            );
            dst.set_ext_word(cursor, ExtWord::new());
            // Validate the (possibly corrupt) object size — in particular
            // an array-length word — before any size-dependent work.
            let remaining_words = (end.get() - cursor.get()) / 8;
            let k = reg.get(id);
            let words_checked = if k.is_array() {
                let len = dst.array_len(cursor) as u64;
                if len >= remaining_words {
                    return Err(SerError::Malformed("array length exceeds image"));
                }
                k.array_words(len as usize) as u64
            } else {
                k.instance_words() as u64
            };
            if words_checked > remaining_words {
                return Err(SerError::Malformed("object overruns image"));
            }
            let view = dst.object(reg, cursor);
            let words = view.size_words();
            let layout = view.layout_bits();
            for (w, &is_ref) in layout.iter().enumerate() {
                if !is_ref || w < HEADER_WORDS {
                    continue;
                }
                tracer.load_word(cursor.add_words(w as u64).get());
                let word = dst.load(cursor.add_words(w as u64));
                let abs = match decode_rel(word) {
                    None => 0,
                    Some(rel) => {
                        if rel >= total_bytes {
                            return Err(SerError::Malformed("relative address out of image"));
                        }
                        tracer.alu(1);
                        base.add_bytes(rel).get()
                    }
                };
                tracer.store_word(cursor.add_words(w as u64).get());
                dst.store(cursor.add_words(w as u64), abs);
            }
            cursor = cursor.add_words(words as u64);
            seen += 1;
        }
        if seen != object_count {
            return Err(SerError::Malformed("object count mismatch"));
        }
        dst.note_reconstructed_objects(u64::from(object_count));
        Ok(base)
    }

    fn preserves_identity_hash(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kryo::Kryo;
    use crate::trace::{CountingSink, NullSink};
    use sdheap::builder::Init;
    use sdheap::{isomorphic, FieldKind, GraphBuilder, ValueType};

    fn roundtrip(heap: &mut Heap, reg: &KlassRegistry, root: Addr) -> (Heap, Addr) {
        let ser = Skyway::new();
        let bytes = ser.serialize(heap, reg, root, &mut NullSink).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
        let new_root = ser.deserialize(&bytes, reg, &mut dst, &mut NullSink).unwrap();
        (dst, new_root)
    }

    fn diamond() -> (Heap, KlassRegistry, Addr) {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass(
            "N",
            vec![FieldKind::Value(ValueType::Long), FieldKind::Ref, FieldKind::Ref],
        );
        let c = b.object(k, &[Init::Val(3), Init::Null, Init::Null]).unwrap();
        let x = b.object(k, &[Init::Val(2), Init::Ref(c), Init::Null]).unwrap();
        let a = b.object(k, &[Init::Val(1), Init::Ref(x), Init::Ref(c)]).unwrap();
        let (heap, reg) = b.finish();
        (heap, reg, a)
    }

    #[test]
    fn roundtrips_with_identity_hashes() {
        let (mut heap, reg, a) = diamond();
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        // Strict isomorphism: Skyway copies headers, hashes survive.
        assert!(isomorphic(&heap, &reg, a, &dst, root));
    }

    #[test]
    fn root_lands_at_image_base() {
        let (mut heap, reg, a) = diamond();
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        assert_eq!(root, dst.base());
    }

    #[test]
    fn roundtrips_arrays_and_cycles() {
        let mut b = GraphBuilder::new(1 << 18);
        let n = b.klass("Node", vec![FieldKind::Ref]);
        let arr = b.array_klass("Object[]", FieldKind::Ref);
        let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
        let data = b
            .value_array(d, &[f64::to_bits(0.5), f64::to_bits(2.5), f64::to_bits(-1.0)])
            .unwrap();
        let x = b.object(n, &[Init::Null]).unwrap();
        let container = b.ref_array(arr, &[x, data, Addr::NULL, x]).unwrap();
        b.link(x, 0, container); // cycle through the array
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, container);
        assert!(isomorphic(&heap, &reg, container, &dst, root));
    }

    #[test]
    fn stream_is_larger_than_kryo() {
        let (mut heap, reg, a) = diamond();
        let sky = Skyway::new().serialize(&mut heap, &reg, a, &mut NullSink).unwrap();
        let kryo = Kryo::new().serialize(&mut heap, &reg, a, &mut NullSink).unwrap();
        assert!(
            sky.len() > kryo.len(),
            "skyway {} must exceed kryo {} (headers travel)",
            sky.len(),
            kryo.len()
        );
    }

    #[test]
    fn ext_word_does_not_travel() {
        let (mut heap, reg, a) = diamond();
        heap.set_ext_word(a, ExtWord::new().with_counter(99).with_relative_addr(7));
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        assert_eq!(dst.ext_word(root), ExtWord::new());
    }

    #[test]
    fn no_reflection_and_bulk_copy_shape() {
        let (mut heap, reg, a) = diamond();
        let mut ser_counts = CountingSink::new();
        let bytes = Skyway::new().serialize(&mut heap, &reg, a, &mut ser_counts).unwrap();
        assert_eq!(ser_counts.reflect_calls, 0);
        let mut de_counts = CountingSink::new();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 16);
        Skyway::new().deserialize(&bytes, &reg, &mut dst, &mut de_counts).unwrap();
        // Deserialization re-touches every ref word: copy + adjustment.
        assert!(de_counts.stores >= de_counts.loads / 2);
        assert_eq!(de_counts.allocs, 0, "no per-object allocation: bulk copy");
    }

    #[test]
    fn rejects_corrupt_streams() {
        let (mut heap, reg, a) = diamond();
        let bytes = Skyway::new().serialize(&mut heap, &reg, a, &mut NullSink).unwrap();
        let mut dst = Heap::new(1 << 16);
        // Truncated body.
        let err = Skyway::new()
            .deserialize(&bytes[..bytes.len() - 8], &reg, &mut dst, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)));
        // Unknown type id.
        let empty = KlassRegistry::new();
        let mut dst2 = Heap::new(1 << 16);
        let err = Skyway::new()
            .deserialize(&bytes, &empty, &mut dst2, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::UnknownClassId(_)));
        // Out-of-image relative address.
        let mut evil = bytes.clone();
        let ref_word_off = 8 + (HEADER_WORDS + 1) * 8; // first object's first ref
        evil[ref_word_off..ref_word_off + 8]
            .copy_from_slice(&(u32::MAX as u64).to_le_bytes());
        let mut dst3 = Heap::new(1 << 16);
        let err = Skyway::new()
            .deserialize(&evil, &reg, &mut dst3, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)));
    }
}

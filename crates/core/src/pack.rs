//! `phocus-pack` v3: a versioned, checksummed binary instance format.
//!
//! A pack stores what an instance load cannot derive cheaply — the
//! photo/subset tables, per-subset [`DenseSim`]/[`SparseSim`] stores, and the
//! component shard labels — and nothing that it can:
//!
//! * [`pack_instance`] takes an [`Instance`], derives the shard labels once,
//!   and writes every stored arena verbatim.
//! * [`unpack_instance`] parses a fixed-size header and an O(1) section
//!   table, verifies one FNV-1a checksum per section, bulk-copies the
//!   arenas, and builds the [`Instance`] through the same model check as the
//!   builder and the epoch-delta layer. The membership reverse-index and the
//!   `S₀`/archive cost totals are derived there, not stored; relevance keeps
//!   its stored bits (nothing renormalizes). The stored [`ShardLabels`] are
//!   then checked sound for the instance: no interaction edge crosses two
//!   shards and no singleton-pool photo has one. A corrupted or crafted
//!   file is a typed [`PackError`], never a later panic or a wrong answer.
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! header    magic "PHOCPAK1" (8 bytes) · version u32 (= 3) · section_count u32
//! table     section_count × { kind u32 · reserved u32 · offset u64 · len u64 · fnv1a64 u64 }
//! payloads  concatenated section bytes, ascending offsets, no gaps/overlap
//! ```
//!
//! The seven mandatory sections are listed in [`kind`]; the full field-level
//! spec lives in `DESIGN.md` §15. Section lengths are validated against the
//! file size *before* any allocation, and every element count inside a
//! section is validated against the section's remaining bytes before its
//! vector is allocated — byte-soup inputs cannot OOM the reader (the
//! `no_panic.rs` fuzz gate pins this).
//!
//! The header and table carry every section's checksum, so their own FNV-1a
//! ([`table_digest`]) identifies the whole image: the tenant catalog binds
//! each pack by it, and every payload byte is hashed once per load.
//!
//! Determinism: packing the same instance twice yields byte-identical
//! files. Every array is written in storage order and the writer performs no
//! hashing or map iteration, so the bytes are a pure function of the
//! instance — `ci.sh` packs a corpus twice and `cmp`s the files.

use crate::ids::{PhotoId, SubsetId};
use crate::instance::Instance;
use crate::sim::{ContextSim, DenseSim, SparseSim};
use crate::{shard_labels, ModelError, Photo, ShardLabels, Subset};
use std::fmt;
use std::sync::Arc;

/// File magic: `PHOCPAK1`.
pub const MAGIC: [u8; 8] = *b"PHOCPAK1";
/// Format version this module reads and writes; an image of any other
/// version is a [`PackError::VersionSkew`].
pub const VERSION: u32 = 3;
/// Size of one section-table entry in bytes.
const TABLE_ENTRY: usize = 32;
/// Size of the fixed header in bytes.
const HEADER: usize = 16;
/// Hard cap on the declared section count — v3 defines 7 sections; a table
/// claiming more than this is corrupt, and rejecting it here bounds the
/// table allocation before it happens.
const MAX_SECTIONS: u32 = 64;

/// Section kind identifiers (the `kind` field of a table entry).
pub mod kind {
    /// Scalar counts and the budget; bounds every other section.
    pub const META: u32 = 1;
    /// Photo costs + name string table.
    pub const PHOTOS: u32 = 2;
    /// Required photo ids (`S₀`), in stored order.
    pub const REQUIRED: u32 = 3;
    /// Subset weights + label string table.
    pub const SUBSETS: u32 = 4;
    /// Subset member CSR + raw normalized relevance bits.
    pub const MEMBERS: u32 = 5;
    /// Per-subset similarity stores (unit / dense triangle / sparse CSR).
    /// (Kind 6 is unassigned: v2's membership reverse-index.)
    pub const SIMS: u32 = 7;
    /// Component shard labels. (Kind 8 is unassigned: v1's evaluator
    /// weights.)
    pub const LABELS: u32 = 9;
}

/// All mandatory sections, in the order the writer emits them. A table
/// entry of any other kind is malformed.
const ALL_KINDS: [u32; 7] = [
    kind::META,
    kind::PHOTOS,
    kind::REQUIRED,
    kind::SUBSETS,
    kind::MEMBERS,
    kind::SIMS,
    kind::LABELS,
];

/// FNV-1a, 64-bit: the dependency-free per-section checksum (same algorithm
/// the determinism suite uses for transcript hashing).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a pack file failed to load. Every variant is a *typed* refusal — the
/// reader never panics and never allocates proportionally to untrusted
/// counts (the fuzz gate in `no_panic.rs` corrupts packs every way listed
/// here and asserts exactly this).
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// The buffer ends before the header or a table entry it promises.
    Truncated {
        /// Bytes the structure needs.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first 8 bytes are not `PHOCPAK1`.
    BadMagic,
    /// The header's version field is not [`VERSION`].
    VersionSkew {
        /// The version the file claims.
        found: u32,
    },
    /// The header claims an absurd section count (more than 64).
    SectionCount {
        /// The count the file claims.
        found: u32,
    },
    /// A required section kind is absent from the table.
    MissingSection {
        /// The absent [`kind`].
        kind: u32,
    },
    /// The same section kind appears twice in the table.
    DuplicateSection {
        /// The repeated [`kind`].
        kind: u32,
    },
    /// A section's `offset + len` overflows or lands past end-of-file.
    SectionBounds {
        /// The offending section's [`kind`].
        kind: u32,
    },
    /// Two sections' byte ranges overlap (or a section precedes the table).
    SectionOverlap {
        /// The later-offset section's [`kind`].
        kind: u32,
    },
    /// A section's payload does not hash to its table checksum.
    Checksum {
        /// The failing section's [`kind`].
        kind: u32,
    },
    /// An element count inside a section exceeds what its remaining bytes
    /// can hold — the allocation cap that keeps byte soup from OOMing.
    TooLarge {
        /// The offending section's [`kind`].
        kind: u32,
    },
    /// A section decoded but its contents are internally inconsistent
    /// (non-monotone offsets, out-of-range index, invalid UTF-8, …).
    Malformed {
        /// The offending section's [`kind`].
        kind: u32,
        /// What was inconsistent.
        what: &'static str,
    },
    /// The sections decode, but the instance they describe violates the
    /// model (a zero-cost photo, `S₀` over budget, a duplicate member, a
    /// non-finite weight, …) — the same check every instance passes.
    Model(ModelError),
    /// The instance cannot be represented in the pack format: a count or a
    /// string-table byte total exceeds the format's u32 fields. Returned by
    /// the writer only, before any bytes are produced.
    Unrepresentable {
        /// Which count overflowed.
        what: &'static str,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Truncated { need, have } => {
                write!(f, "pack truncated: need {need} bytes, have {have}")
            }
            PackError::BadMagic => write!(f, "not a phocus-pack file (bad magic)"),
            PackError::VersionSkew { found } => {
                write!(f, "unsupported pack version {found} (reader supports {VERSION})")
            }
            PackError::SectionCount { found } => {
                write!(f, "implausible section count {found} (max {MAX_SECTIONS})")
            }
            PackError::MissingSection { kind } => write!(f, "missing section kind {kind}"),
            PackError::DuplicateSection { kind } => write!(f, "duplicate section kind {kind}"),
            PackError::SectionBounds { kind } => {
                write!(f, "section kind {kind} extends past end of file")
            }
            PackError::SectionOverlap { kind } => {
                write!(f, "section kind {kind} overlaps another section")
            }
            PackError::Checksum { kind } => {
                write!(f, "section kind {kind} failed its checksum")
            }
            PackError::TooLarge { kind } => {
                write!(f, "section kind {kind} declares more elements than it holds")
            }
            PackError::Malformed { kind, what } => {
                write!(f, "section kind {kind} is malformed: {what}")
            }
            PackError::Model(e) => write!(f, "pack describes an invalid instance: {e}"),
            PackError::Unrepresentable { what } => {
                write!(f, "instance not representable in pack v{VERSION}: {what}")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// Everything a pack load reconstructs: the instance plus the component
/// labels the solvers would otherwise recompute on every cold start.
#[derive(Debug, Clone)]
pub struct PackedInstance {
    /// The instance, model-checked, with its derived parts rebuilt.
    pub instance: Instance,
    /// Component shard labels, written as `shard_labels(&instance)` and
    /// checked sound for the instance at load.
    pub labels: ShardLabels,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Little-endian append helpers over the output buffer.
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn f32s(&mut self, vs: &[f32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    /// A string table: `count + 1` cumulative u32 byte offsets, then the
    /// concatenated UTF-8 bytes. Fails (without writing the byte payload)
    /// when the cumulative length overflows the format's u32 offsets.
    fn strings<'a>(
        &mut self,
        items: impl ExactSizeIterator<Item = &'a str> + Clone,
    ) -> Result<(), PackError> {
        let mut off = 0u64;
        self.u32(0);
        for s in items.clone() {
            off += s.len() as u64;
            let v = u32::try_from(off).map_err(|_| PackError::Unrepresentable {
                what: "string table exceeds u32 offsets",
            })?;
            self.u32(v);
        }
        for s in items {
            self.buf.extend_from_slice(s.as_bytes());
        }
        Ok(())
    }
}

/// Serializes `inst` into a `phocus-pack` byte image.
///
/// Derives the shard labels here — once, at write time — so loads install
/// them verbatim.
///
/// Fails with [`PackError::Unrepresentable`] — before producing any bytes —
/// when a count or string-table total exceeds the format's u32 fields; no
/// silent truncation can reach the file.
pub fn pack_instance(inst: &Instance) -> Result<Vec<u8>, PackError> {
    let labels = shard_labels(inst);
    let n = inst.num_photos();
    let m = inst.num_subsets();
    let member_total: usize = inst.subsets().iter().map(|q| q.members.len()).sum();

    // The format stores counts and CSR offsets in u32 fields: reject
    // anything it cannot hold up front, so every `as u32` below is in-range
    // by this check.
    let cap = u32::MAX as u64;
    for (v, what) in [
        (n as u64, "photo count exceeds u32"),
        (m as u64, "subset count exceeds u32"),
        (member_total as u64, "member total exceeds u32"),
        (inst.required().len() as u64, "required count exceeds u32"),
    ] {
        if v > cap {
            return Err(PackError::Unrepresentable { what });
        }
    }

    // Build each section's payload.
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(ALL_KINDS.len());

    // META
    {
        let mut w = W { buf: Vec::with_capacity(56) };
        w.u64(inst.budget());
        w.u64(n as u64);
        w.u64(m as u64);
        w.u64(member_total as u64);
        w.u64(inst.required().len() as u64);
        w.u64(labels.num_shards() as u64);
        w.u64(labels.singleton_pool().map_or(u64::MAX, |p| p as u64));
        sections.push((kind::META, w.buf));
    }

    // PHOTOS: costs, then the name string table.
    {
        let mut w = W { buf: Vec::new() };
        for p in inst.photos() {
            w.u64(p.cost);
        }
        w.strings(inst.photos().iter().map(|p| &*p.name))?;
        sections.push((kind::PHOTOS, w.buf));
    }

    // REQUIRED: ids in stored order.
    {
        let mut w = W { buf: Vec::new() };
        for &r in inst.required() {
            w.u32(r.0);
        }
        sections.push((kind::REQUIRED, w.buf));
    }

    // SUBSETS: weights (raw f64 bits), then the label string table.
    {
        let mut w = W { buf: Vec::new() };
        for q in inst.subsets() {
            w.buf.extend_from_slice(&q.weight.to_bits().to_le_bytes());
        }
        w.strings(inst.subsets().iter().map(|q| &*q.label))?;
        sections.push((kind::SUBSETS, w.buf));
    }

    // MEMBERS: member CSR offsets, member ids, raw relevance bits.
    {
        let mut w = W { buf: Vec::new() };
        let mut off = 0u32;
        w.u32(0);
        for q in inst.subsets() {
            // phocus-lint: allow(cast-bounds) — member_total ≤ u32::MAX was
            // checked up front, and off never exceeds member_total.
            off += q.members.len() as u32;
            w.u32(off);
        }
        for q in inst.subsets() {
            for &p in &q.members {
                w.u32(p.0);
            }
        }
        for q in inst.subsets() {
            w.f64s(&q.relevance);
        }
        sections.push((kind::MEMBERS, w.buf));
    }

    // SIMS: one tagged record per subset.
    {
        let mut w = W { buf: Vec::new() };
        for s in inst.sims() {
            match &**s {
                ContextSim::Unit(len) => {
                    w.u32(0);
                    w.u64(*len as u64);
                }
                ContextSim::Dense(d) => {
                    w.u32(1);
                    w.u64(d.len() as u64);
                    w.f32s(d.raw_tri());
                }
                ContextSim::Sparse(sp) => {
                    let (offsets, neighbor_idx, sim) = sp.raw_csr();
                    w.u32(2);
                    w.u64(sp.len() as u64);
                    w.u64(neighbor_idx.len() as u64);
                    w.u32s(offsets);
                    w.u32s(neighbor_idx);
                    w.f32s(sim);
                }
            }
        }
        sections.push((kind::SIMS, w.buf));
    }

    // LABELS: per-photo shard indices (scalars live in META).
    {
        let mut w = W { buf: Vec::new() };
        w.u32s(labels.photo_shards());
        sections.push((kind::LABELS, w.buf));
    }

    // Header + table + payloads.
    let table_len = sections.len() * TABLE_ENTRY;
    let total: usize = HEADER + table_len + sections.iter().map(|(_, b)| b.len()).sum::<usize>();
    let mut out = W { buf: Vec::with_capacity(total) };
    out.buf.extend_from_slice(&MAGIC);
    out.u32(VERSION);
    out.u32(sections.len() as u32); // phocus-lint: allow(cast-bounds) — exactly ALL_KINDS.len() == 7 sections
    let mut offset = (HEADER + table_len) as u64;
    for (k, payload) in &sections {
        out.u32(*k);
        out.u32(0);
        out.u64(offset);
        out.u64(payload.len() as u64);
        out.u64(fnv1a64(payload));
        offset += payload.len() as u64;
    }
    for (_, payload) in &sections {
        out.buf.extend_from_slice(payload);
    }
    Ok(out.buf)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor over one section's payload. Every
/// bulk read validates the element count against the remaining bytes
/// *before* allocating, so a corrupt count is a [`PackError::TooLarge`]
/// instead of an OOM.
struct R<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: u32,
}

impl<'a> R<'a> {
    fn new(kind: u32, buf: &'a [u8]) -> Self {
        R { buf, pos: 0, kind }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PackError> {
        if self.remaining() < n {
            return Err(PackError::TooLarge { kind: self.kind });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PackError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PackError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A u64 element count narrowed to `usize` with a checked conversion —
    /// on 32-bit targets a hostile 2⁶⁴-scale count must become a typed
    /// error, not a truncated (and possibly plausible) small one.
    fn usize(&mut self) -> Result<usize, PackError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PackError::TooLarge { kind: self.kind })
    }

    /// Validates `count * size` fits the remaining bytes (overflow-safe).
    fn cap(&self, count: usize, size: usize) -> Result<usize, PackError> {
        match count.checked_mul(size) {
            Some(bytes) if bytes <= self.remaining() => Ok(bytes),
            _ => Err(PackError::TooLarge { kind: self.kind }),
        }
    }

    // phocus-lint: hot-kernel — bulk section loader; dominates unpack time
    fn vec_u32(&mut self, count: usize) -> Result<Vec<u32>, PackError> {
        self.cap(count, 4)?;
        let bytes = self.take(count * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()) // phocus-lint: allow(alloc-hot) — single sized allocation after the cap check
    }

    // phocus-lint: hot-kernel — bulk section loader; dominates unpack time
    fn vec_u64(&mut self, count: usize) -> Result<Vec<u64>, PackError> {
        self.cap(count, 8)?;
        let bytes = self.take(count * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect()) // phocus-lint: allow(alloc-hot) — single sized allocation after the cap check
    }

    // phocus-lint: hot-kernel — bulk section loader; dominates unpack time
    fn vec_f32(&mut self, count: usize) -> Result<Vec<f32>, PackError> {
        self.cap(count, 4)?;
        let bytes = self.take(count * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()) // phocus-lint: allow(alloc-hot) — single sized allocation after the cap check
    }

    // phocus-lint: hot-kernel — bulk section loader; dominates unpack time
    fn vec_f64(&mut self, count: usize) -> Result<Vec<f64>, PackError> {
        self.cap(count, 8)?;
        let bytes = self.take(count * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                f64::from_bits(u64::from_le_bytes([
                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                ]))
            })
            .collect()) // phocus-lint: allow(alloc-hot) — single sized allocation after the cap check
    }

    fn malformed(&self, what: &'static str) -> PackError {
        PackError::Malformed { kind: self.kind, what }
    }

    /// Reads a string table of `count` entries: cumulative offsets, then the
    /// concatenated bytes. Returns one `Arc<str>` per entry.
    fn strings(&mut self, count: usize) -> Result<Vec<Arc<str>>, PackError> {
        let offsets = self.vec_u32(count + 1)?;
        if offsets[0] != 0 {
            return Err(self.malformed("string table does not start at 0"));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(self.malformed("string table offsets decrease"));
        }
        let total = offsets[count] as usize;
        let bytes = self.take(total)?;
        let mut out = Vec::with_capacity(count);
        for w in offsets.windows(2) {
            let s = &bytes[w[0] as usize..w[1] as usize];
            let s = std::str::from_utf8(s).map_err(|_| self.malformed("string is not UTF-8"))?;
            out.push(Arc::from(s));
        }
        Ok(out)
    }

    /// The section must be fully consumed — trailing garbage is corruption.
    fn finish(self) -> Result<(), PackError> {
        if self.remaining() != 0 {
            return Err(self.malformed("trailing bytes after section payload"));
        }
        Ok(())
    }
}

/// A monotone CSR offset read: `count + 1` u32s starting at 0, ending at
/// `expected_end`.
fn read_csr_offsets(
    r: &mut R<'_>,
    count: usize,
    expected_end: usize,
) -> Result<Vec<u32>, PackError> {
    let offsets = r.vec_u32(count + 1)?;
    if offsets[0] != 0 {
        return Err(r.malformed("CSR offsets do not start at 0"));
    }
    if !offsets.windows(2).all(|w| w[0] <= w[1]) {
        return Err(r.malformed("CSR offsets decrease"));
    }
    if offsets[count] as usize != expected_end {
        return Err(r.malformed("CSR offsets end at the wrong total"));
    }
    Ok(offsets)
}

/// The parsed scalar header section, bounding everything else.
struct Meta {
    budget: u64,
    num_photos: usize,
    num_subsets: usize,
    member_total: usize,
    num_required: usize,
    num_shards: usize,
    singleton_pool: Option<usize>,
}

/// Checks the fixed header — magic, version, a plausible section count —
/// and returns the byte length of the header plus the section table.
fn table_end(bytes: &[u8]) -> Result<usize, PackError> {
    if bytes.len() < HEADER {
        return Err(PackError::Truncated { need: HEADER, have: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(PackError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(PackError::VersionSkew { found: version });
    }
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if count > MAX_SECTIONS {
        return Err(PackError::SectionCount { found: count });
    }
    let table_end = HEADER + count as usize * TABLE_ENTRY;
    if bytes.len() < table_end {
        return Err(PackError::Truncated { need: table_end, have: bytes.len() });
    }
    Ok(table_end)
}

/// FNV-1a over the image's header and section table. The table holds every
/// section's offset, length and checksum, and [`unpack_instance`] accepts an
/// image only if its sections tile the rest of the file and match those
/// checksums — so this digest of the first `16 + 32·sections` bytes
/// identifies the whole image without hashing any payload twice.
pub fn table_digest(bytes: &[u8]) -> Result<u64, PackError> {
    Ok(fnv1a64(&bytes[..table_end(bytes)?]))
}

/// Deserializes a `phocus-pack` byte image produced by [`pack_instance`],
/// returning the model-checked instance plus its persisted shard labels,
/// checked sound for it.
pub fn unpack_instance(bytes: &[u8]) -> Result<PackedInstance, PackError> {
    let table_end = table_end(bytes)?;
    let count = (table_end - HEADER) / TABLE_ENTRY;

    // --- section table: O(1) per-kind lookup, bounds, overlap, checksums ---
    let mut by_kind: [Option<&[u8]>; 16] = [None; 16];
    let mut prev_end = table_end as u64;
    for i in 0..count {
        let e = &bytes[HEADER + i * TABLE_ENTRY..HEADER + (i + 1) * TABLE_ENTRY];
        let k = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
        if !ALL_KINDS.contains(&k) {
            return Err(PackError::Malformed { kind: k, what: "unknown section kind" });
        }
        let offset = u64::from_le_bytes([e[8], e[9], e[10], e[11], e[12], e[13], e[14], e[15]]);
        let len = u64::from_le_bytes([e[16], e[17], e[18], e[19], e[20], e[21], e[22], e[23]]);
        let sum = u64::from_le_bytes([e[24], e[25], e[26], e[27], e[28], e[29], e[30], e[31]]);
        let end = offset.checked_add(len).ok_or(PackError::SectionBounds { kind: k })?;
        if end > bytes.len() as u64 {
            return Err(PackError::SectionBounds { kind: k });
        }
        // The writer emits sections back-to-back in table order; requiring
        // exactly that makes overlap, gaps, and out-of-order tables all
        // detectable with one comparison (and is why packing is canonical:
        // one instance, one byte image).
        if offset != prev_end {
            return Err(PackError::SectionOverlap { kind: k });
        }
        prev_end = end;
        let slot = &mut by_kind[k as usize];
        if slot.is_some() {
            return Err(PackError::DuplicateSection { kind: k });
        }
        // phocus-lint: allow(cast-bounds) — offset ≤ end ≤ bytes.len() was
        // just checked, and a slice length always fits usize.
        let payload = &bytes[offset as usize..end as usize];
        if fnv1a64(payload) != sum {
            return Err(PackError::Checksum { kind: k });
        }
        *slot = Some(payload);
    }
    if prev_end != bytes.len() as u64 {
        return Err(PackError::Truncated {
            // phocus-lint: allow(cast-bounds) — diagnostic value only; every
            // section's end was bounds-checked ≤ bytes.len() above, so
            // prev_end fits the buffer's own length type.
            need: prev_end as usize,
            have: bytes.len(),
        });
    }
    let section = |k: u32| by_kind[k as usize].ok_or(PackError::MissingSection { kind: k });
    for k in ALL_KINDS {
        section(k)?;
    }

    // --- META ---
    let meta = {
        let mut r = R::new(kind::META, section(kind::META)?);
        let budget = r.u64()?;
        let num_photos = r.u64()?;
        let num_subsets = r.u64()?;
        let member_total = r.u64()?;
        let num_required = r.u64()?;
        let num_shards = r.u64()?;
        let singleton_pool = r.u64()?;
        r.finish()?;
        // Counts bound every per-element allocation below; anything the
        // remaining sections cannot physically hold dies at their `cap`
        // checks, but reject the obviously hostile values here so the error
        // points at the right section.
        let max = u32::MAX as u64;
        if num_photos > max || num_subsets > max || member_total > max || num_required > max {
            return Err(PackError::Malformed { kind: kind::META, what: "count exceeds u32 range" });
        }
        Meta {
            budget,
            num_photos: num_photos as usize,
            num_subsets: num_subsets as usize,
            member_total: member_total as usize,
            num_required: num_required as usize,
            num_shards: num_shards as usize,
            singleton_pool: (singleton_pool != u64::MAX).then_some(singleton_pool as usize),
        }
    };
    let n = meta.num_photos;
    let m = meta.num_subsets;

    // --- PHOTOS ---
    let photos = {
        let mut r = R::new(kind::PHOTOS, section(kind::PHOTOS)?);
        let costs = r.vec_u64(n)?;
        let names = r.strings(n)?;
        r.finish()?;
        costs
            .into_iter()
            .zip(names)
            .enumerate()
            .map(|(i, (cost, name))| Photo { id: PhotoId(i as u32), name, cost })
            .collect::<Vec<_>>()
    };

    // --- REQUIRED ---
    let required_ids = {
        let mut r = R::new(kind::REQUIRED, section(kind::REQUIRED)?);
        let ids = r.vec_u32(meta.num_required)?;
        r.finish()?;
        ids.into_iter().map(PhotoId).collect::<Vec<_>>()
    };

    // --- SUBSETS + MEMBERS ---
    let (weights, labels_tab) = {
        let mut r = R::new(kind::SUBSETS, section(kind::SUBSETS)?);
        let weights = r.vec_f64(m)?;
        let labels = r.strings(m)?;
        r.finish()?;
        (weights, labels)
    };
    let subsets = {
        let mut r = R::new(kind::MEMBERS, section(kind::MEMBERS)?);
        let offsets = read_csr_offsets(&mut r, m, meta.member_total)?;
        let members = r.vec_u32(meta.member_total)?;
        let relevance = r.vec_f64(meta.member_total)?;
        r.finish()?;
        let mut subsets = Vec::with_capacity(m);
        for (s, (weight, label)) in weights.into_iter().zip(labels_tab).enumerate() {
            let lo = offsets[s] as usize;
            let hi = offsets[s + 1] as usize;
            subsets.push(Subset {
                id: SubsetId(s as u32),
                label,
                weight,
                members: members[lo..hi].iter().map(|&p| PhotoId(p)).collect(),
                relevance: Arc::from(&relevance[lo..hi]),
            });
        }
        subsets
    };

    // --- SIMS ---
    let sims = {
        let mut r = R::new(kind::SIMS, section(kind::SIMS)?);
        let mut sims = Vec::with_capacity(m);
        for q in &subsets {
            let tag = r.u32()?;
            let len = r.usize()?;
            if len != q.members.len() {
                return Err(PackError::Malformed {
                    kind: kind::SIMS,
                    what: "similarity store length differs from subset size",
                });
            }
            let store = match tag {
                0 => ContextSim::Unit(len),
                1 => {
                    let tri = r.vec_f32(len * len.saturating_sub(1) / 2)?;
                    ContextSim::Dense(DenseSim::from_raw_tri(len, tri))
                }
                2 => {
                    let edges = r.usize()?;
                    let offsets = read_csr_offsets(&mut r, len, edges)?;
                    let neighbor_idx = r.vec_u32(edges)?;
                    let sim = r.vec_f32(edges)?;
                    if neighbor_idx.iter().any(|&j| j as usize >= len) {
                        return Err(PackError::Malformed {
                            kind: kind::SIMS,
                            what: "sparse neighbor index out of range",
                        });
                    }
                    ContextSim::Sparse(SparseSim::from_raw_csr(offsets, neighbor_idx, sim))
                }
                _ => {
                    return Err(PackError::Malformed {
                        kind: kind::SIMS,
                        what: "unknown similarity store tag",
                    })
                }
            };
            sims.push(Arc::new(store));
        }
        r.finish()?;
        sims
    };

    // --- LABELS ---
    let labels = {
        let mut r = R::new(kind::LABELS, section(kind::LABELS)?);
        let photo_shard = r.vec_u32(n)?;
        r.finish()?;
        if photo_shard.iter().any(|&s| s as usize >= meta.num_shards) {
            return Err(PackError::Malformed {
                kind: kind::LABELS,
                what: "shard label out of range",
            });
        }
        if let Some(pool) = meta.singleton_pool {
            if pool >= meta.num_shards {
                return Err(PackError::Malformed {
                    kind: kind::LABELS,
                    what: "singleton pool index out of range",
                });
            }
        }
        if n > 0 && meta.num_shards == 0 {
            return Err(PackError::Malformed {
                kind: kind::LABELS,
                what: "photos present but zero shards",
            });
        }
        ShardLabels::from_parts(photo_shard, meta.num_shards, meta.singleton_pool)
    };

    let instance = Instance::assemble(photos, required_ids, subsets, meta.budget, |_| Ok(sims))
        .map_err(PackError::Model)?;
    labels
        .check_sound(&instance)
        .map_err(|what| PackError::Malformed { kind: kind::LABELS, what })?;
    Ok(PackedInstance { instance, labels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_score;
    use crate::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};

    fn fixtures() -> Vec<Instance> {
        let mut v = vec![figure1_instance(4 * MB)];
        for seed in [3u64, 11, 29] {
            v.push(random_instance(seed, &RandomInstanceConfig::default()));
        }
        v
    }

    #[test]
    fn round_trip_preserves_structure() {
        for inst in fixtures() {
            let bytes = pack_instance(&inst).expect("packable");
            let packed = unpack_instance(&bytes).expect("round trip");
            let got = &packed.instance;
            assert_eq!(got.num_photos(), inst.num_photos());
            assert_eq!(got.num_subsets(), inst.num_subsets());
            assert_eq!(got.budget(), inst.budget());
            assert_eq!(got.required(), inst.required());
            assert_eq!(got.required_cost(), inst.required_cost());
            assert_eq!(got.total_cost(), inst.total_cost());
            assert_eq!(got.photos(), inst.photos());
            assert_eq!(got.subsets(), inst.subsets());
            for (a, b) in got.sims().iter().zip(inst.sims()) {
                assert_eq!(**a, **b);
            }
            for p in (0..inst.num_photos() as u32).map(PhotoId) {
                assert_eq!(got.memberships(p), inst.memberships(p));
            }
            assert_eq!(packed.labels, shard_labels(&inst));
        }
    }

    #[test]
    fn loaded_instance_scores_identically() {
        for inst in fixtures() {
            let packed = unpack_instance(&pack_instance(&inst).expect("packable")).expect("round trip");
            let all: Vec<PhotoId> = (0..inst.num_photos() as u32).map(PhotoId).collect();
            assert_eq!(
                exact_score(&inst, &all).to_bits(),
                exact_score(&packed.instance, &all).to_bits()
            );
        }
    }

    #[test]
    fn packing_is_deterministic() {
        for inst in fixtures() {
            assert_eq!(
                pack_instance(&inst).expect("packable"),
                pack_instance(&inst).expect("packable")
            );
        }
    }

    /// Inserts a table entry of section kind `k` with an empty payload at
    /// the end of the table, shifting every payload offset past it, so the
    /// image stays back-to-back and every checksum stays valid.
    fn with_extra_section(good: &[u8], k: u32) -> Vec<u8> {
        let count = u32::from_le_bytes([good[12], good[13], good[14], good[15]]) as usize;
        let table_end = HEADER + count * TABLE_ENTRY;
        let mut out = good[..table_end].to_vec();
        out[12..16].copy_from_slice(&(count as u32 + 1).to_le_bytes());
        for i in 0..count {
            let e = HEADER + i * TABLE_ENTRY + 8;
            let offset = u64::from_le_bytes(out[e..e + 8].try_into().unwrap());
            out[e..e + 8].copy_from_slice(&(offset + TABLE_ENTRY as u64).to_le_bytes());
        }
        let end = (good.len() + TABLE_ENTRY) as u64;
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&end.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&[]).to_le_bytes());
        out.extend_from_slice(&good[table_end..]);
        out
    }

    #[test]
    fn undeclared_section_kinds_are_malformed() {
        let good = pack_instance(&figure1_instance(4 * MB)).expect("packable");
        for k in [0u32, 8, 12] {
            assert_eq!(
                unpack_instance(&with_extra_section(&good, k)).unwrap_err(),
                PackError::Malformed {
                    kind: k,
                    what: "unknown section kind"
                },
                "kind {k}"
            );
        }
        // The same splice with a declared kind is a duplicate, so the
        // helper itself yields a well-formed table.
        assert_eq!(
            unpack_instance(&with_extra_section(&good, kind::META)).unwrap_err(),
            PackError::DuplicateSection { kind: kind::META }
        );
    }

    #[test]
    fn v1_images_are_version_skew() {
        let mut v1 = pack_instance(&figure1_instance(4 * MB)).expect("packable");
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            unpack_instance(&v1).unwrap_err(),
            PackError::VersionSkew { found: 1 }
        );
    }

    #[test]
    fn v2_images_are_version_skew() {
        // v2 stored the membership index and the cost totals.
        let mut v2 = pack_instance(&figure1_instance(4 * MB)).expect("packable");
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            unpack_instance(&v2).unwrap_err(),
            PackError::VersionSkew { found: 2 }
        );
        assert_eq!(
            table_digest(&v2).unwrap_err(),
            PackError::VersionSkew { found: 2 }
        );
    }

    #[test]
    fn table_digest_covers_header_and_table_only() {
        let good = pack_instance(&figure1_instance(4 * MB)).expect("packable");
        let table = HEADER + ALL_KINDS.len() * TABLE_ENTRY;
        assert_eq!(table_digest(&good), Ok(fnv1a64(&good[..table])));
        // A payload edit leaves the digest alone but fails its section
        // checksum on load, so digest + load together bind every byte.
        let mut stale = good.clone();
        let last = stale.len() - 1;
        stale[last] ^= 1;
        assert_eq!(table_digest(&stale), table_digest(&good));
        assert_eq!(
            unpack_instance(&stale).unwrap_err(),
            PackError::Checksum { kind: kind::LABELS }
        );
        assert!(table_digest(&good[..table - 1]).is_err());
    }

    /// Four photos: `S₀ = {p0, p2}` (2002 bytes), a stored pair p0–p1 in
    /// `pair`, and p2, p3 alone in unit contexts — so the labels are
    /// `[0, 0, 1, 1]` with shard 1 the singleton pool.
    fn crafted_base() -> Instance {
        let mut b = crate::InstanceBuilder::new(5_000);
        let p: Vec<PhotoId> = (0..4u64)
            .map(|i| b.add_photo(format!("p{i}"), 1_000 + i))
            .collect();
        b.require(p[0]);
        b.require(p[2]);
        b.add_subset("pair", 2.0, vec![p[0], p[1]], vec![]);
        b.add_subset("a", 1.0, vec![p[2]], vec![]);
        b.add_subset("b", 1.0, vec![p[3]], vec![]);
        let pair = SparseSim::from_pairs(SubsetId(0), 2, [(0, 1, 0.8)]).expect("valid pair");
        b.build_with_sims(vec![
            ContextSim::Sparse(pair),
            ContextSim::Unit(1),
            ContextSim::Unit(1),
        ])
        .expect("valid fixture")
    }

    /// Rewrites section `k`'s payload with `edit` and re-checksums it: a
    /// file that passes every integrity check but says something else.
    fn recrafted(good: &[u8], k: u32, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = good.to_vec();
        let e = (0..ALL_KINDS.len())
            .map(|i| HEADER + i * TABLE_ENTRY)
            .find(|&e| out[e..e + 4] == k.to_le_bytes())
            .expect("section present");
        let offset = u64::from_le_bytes(out[e + 8..e + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(out[e + 16..e + 24].try_into().unwrap()) as usize;
        edit(&mut out[offset..offset + len]);
        let sum = fnv1a64(&out[offset..offset + len]);
        out[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn crafted_base_loads_with_its_labels() {
        let inst = crafted_base();
        let labels = shard_labels(&inst);
        assert_eq!(labels.photo_shards(), [0, 0, 1, 1]);
        assert_eq!(labels.singleton_pool(), Some(1));
        let loaded = unpack_instance(&pack_instance(&inst).expect("packable")).expect("loads");
        assert_eq!(loaded.labels, labels);
        assert_eq!(loaded.instance.required_cost(), 2002);
        assert_eq!(loaded.instance.total_cost(), 4006);
    }

    #[test]
    fn crafted_zero_cost_photo_is_a_model_error() {
        let good = pack_instance(&crafted_base()).expect("packable");
        let bad = recrafted(&good, kind::PHOTOS, |b| b[..8].fill(0));
        assert_eq!(
            unpack_instance(&bad).unwrap_err(),
            PackError::Model(ModelError::ZeroCostPhoto(PhotoId(0)))
        );
    }

    #[test]
    fn crafted_budget_below_required_set_is_a_model_error() {
        let good = pack_instance(&crafted_base()).expect("packable");
        let bad = recrafted(&good, kind::META, |b| {
            b[..8].copy_from_slice(&2001u64.to_le_bytes())
        });
        assert_eq!(
            unpack_instance(&bad).unwrap_err(),
            PackError::Model(ModelError::RequiredSetOverBudget {
                required_cost: 2002,
                budget: 2001
            })
        );
    }

    #[test]
    fn crafted_duplicate_member_is_a_model_error() {
        let good = pack_instance(&crafted_base()).expect("packable");
        // MEMBERS: 4 CSR offsets, then `pair`'s members p0, p1; make the
        // second one p0 again.
        let bad = recrafted(&good, kind::MEMBERS, |b| {
            b[20..24].copy_from_slice(&0u32.to_le_bytes())
        });
        assert_eq!(
            unpack_instance(&bad).unwrap_err(),
            PackError::Model(ModelError::DuplicateMember {
                subset: SubsetId(0),
                photo: PhotoId(0)
            })
        );
    }

    #[test]
    fn crafted_non_finite_weight_is_a_model_error() {
        let good = pack_instance(&crafted_base()).expect("packable");
        for bits in [f64::NAN.to_bits(), f64::INFINITY.to_bits(), 0u64] {
            let bad = recrafted(&good, kind::SUBSETS, |b| {
                b[..8].copy_from_slice(&bits.to_le_bytes())
            });
            assert!(
                matches!(
                    unpack_instance(&bad).unwrap_err(),
                    PackError::Model(ModelError::InvalidWeight {
                        subset: SubsetId(0),
                        ..
                    })
                ),
                "weight bits {bits:#x}"
            );
        }
    }

    #[test]
    fn crafted_unsorted_required_set_is_a_model_error() {
        let good = pack_instance(&crafted_base()).expect("packable");
        // REQUIRED holds p0, p2; store them as p2, p0.
        let bad = recrafted(&good, kind::REQUIRED, |b| {
            let (first, second) = b.split_at_mut(4);
            first.swap_with_slice(second);
        });
        assert_eq!(
            unpack_instance(&bad).unwrap_err(),
            PackError::Model(ModelError::RequiredNotAscending(PhotoId(0)))
        );
    }

    #[test]
    fn crafted_labels_splitting_a_component_are_malformed() {
        let good = pack_instance(&crafted_base()).expect("packable");
        // p1 moved off p0's shard: the stored pair p0–p1 crosses shards.
        let split = recrafted(&good, kind::LABELS, |b| {
            b[4..8].copy_from_slice(&1u32.to_le_bytes())
        });
        assert_eq!(
            unpack_instance(&split).unwrap_err(),
            PackError::Malformed {
                kind: kind::LABELS,
                what: "an interaction edge crosses two shards"
            }
        );
        // Both moved into the pool: one shard, but the pool holds an edge.
        let pooled = recrafted(&good, kind::LABELS, |b| {
            b[..8].copy_from_slice(&[1, 0, 0, 0, 1, 0, 0, 0]);
        });
        assert_eq!(
            unpack_instance(&pooled).unwrap_err(),
            PackError::Malformed {
                kind: kind::LABELS,
                what: "a singleton-pool photo has an interaction edge"
            }
        );
        // Soundness, not the canonical numbering, is what a load checks: an
        // edge-free photo may sit in any shard.
        let moved = recrafted(&good, kind::LABELS, |b| {
            b[12..16].copy_from_slice(&0u32.to_le_bytes())
        });
        let loaded = unpack_instance(&moved).expect("sound");
        assert_eq!(loaded.labels.photo_shards(), [0, 0, 1, 0]);
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let inst = figure1_instance(4 * MB);
        let good = pack_instance(&inst).expect("packable");
        assert!(unpack_instance(&good).is_ok());

        // Truncations at every prefix length must fail (never panic).
        for cut in 0..good.len().min(64) {
            assert!(unpack_instance(&good[..cut]).is_err());
        }
        // Any single flipped payload byte fails its section checksum (or a
        // structural check before it).
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert!(unpack_instance(&flipped).is_err());

        // Version skew.
        let mut skew = good.clone();
        skew[8] = 0xfe;
        assert_eq!(
            unpack_instance(&skew).unwrap_err(),
            PackError::VersionSkew { found: u32::from_le_bytes([0xfe, 0, 0, 0]) }
        );

        // Bad magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert_eq!(unpack_instance(&magic).unwrap_err(), PackError::BadMagic);

        // Hostile section count cannot force a big allocation.
        let mut huge = good.clone();
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            unpack_instance(&huge).unwrap_err(),
            PackError::SectionCount { found: u32::MAX }
        );
    }
}

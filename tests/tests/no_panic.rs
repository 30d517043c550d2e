//! The no-panic fuzz gate.
//!
//! Every external input path — text-format bytes, hand-built universes with
//! adversarial numerics, raw similarity pairs, and `phocus-pack` binary
//! images — must surface as a typed error or a valid result; a panic
//! anywhere in `from_text → represent → solve` or in `unpack_instance` is a
//! bug. The generators are seeded, so CI runs a fixed, reproducible corpus
//! (see `ci.sh`).

use par_core::fixtures::{random_instance, RandomInstanceConfig};
use par_core::pack::VERSION;
use par_core::{
    fnv1a64, pack_instance, unpack_instance, InstanceBuilder, ModelError, PhotoId, SparseSim,
    SubsetId, UnitSimilarity,
};
use par_datasets::{from_text, to_text, SubsetDef, Universe};
use par_embed::Embedding;
use phocus::{ActionLadder, CompressionLevel, Phocus, PhocusError};
use proptest::prelude::*;

/// SplitMix64 — a local deterministic stream so each case can draw an
/// unbounded number of values from one generated seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fragments the text fuzzer splices together: valid records, truncated
/// records, hostile numerics, and separator soup.
const FRAGMENTS: &[&str] = &[
    "# phocus-universe v1\n",
    "name\tfuzz\n",
    "photo\t0\t100\ta\n",
    "photo\t1\t200\tb\n",
    "photo\t0\t18446744073709551615\tmax\n",
    "photo\t0\t0\tzero-cost\n",
    "photo\t99999999\t1\tsparse-id\n",
    "photo\t0\n",
    "photo\t-1\t5\tneg\n",
    "embedding\t0\t1.0\t0.0\n",
    "embedding\t1\t0.0\t1.0\n",
    "embedding\t0\tNaN\tinf\n",
    "embedding\t0\n",
    "embedding\tx\t1.0\n",
    "subset\tq\t1.5\t0:1\t1:2\n",
    "subset\tq\tNaN\t0:1\n",
    "subset\tq\t-inf\t0:1\n",
    "subset\tq\t1e308\t0:NaN\n",
    "subset\tq\t2.0\t5:1\n",
    "subset\tq\t2.0\t0:1\t0:1\n",
    "subset\tq\t2.0\n",
    "subset\tq\t1.0\t0:0\n",
    "required\t0\n",
    "required\t7\t-3\n",
    "exif\t0\t12345\t1.5\t2.5\tcam\n",
    "exif\t0\tbad\n",
    "frobnicate\t1\n",
    "\n",
    "\t",
    ":",
    "0",
    "NaN",
    "photo",
    "subset\t",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary splices of format fragments: `from_text` must return
    /// `Ok`/`Err`, never panic, and any `Ok` universe must re-validate.
    #[test]
    fn from_text_never_panics_on_fragment_soup(seed in any::<u64>(), len in 1usize..24) {
        let mut s = seed;
        let mut text = String::new();
        for _ in 0..len {
            text.push_str(FRAGMENTS[(splitmix(&mut s) % FRAGMENTS.len() as u64) as usize]);
        }
        if let Ok(u) = from_text(&text) {
            u.validate().expect("from_text output must be valid");
        }
    }

    /// Raw byte soup (lossily decoded): the parser sees genuinely arbitrary
    /// lines, not just recombined fragments.
    #[test]
    fn from_text_never_panics_on_byte_soup(seed in any::<u64>(), len in 0usize..200) {
        let mut s = seed;
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            // Bias toward the format's structural bytes so parsing gets past
            // the first field often enough to exercise deep paths.
            let b = match splitmix(&mut s) % 8 {
                0 => b'\t',
                1 => b'\n',
                2..=4 => b"0123456789.:-+eE"[(splitmix(&mut s) % 16) as usize],
                _ => (splitmix(&mut s) % 256) as u8,
            };
            bytes.push(b);
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = from_text(&text);
    }
}

/// A small well-formed universe the adversarial cases corrupt.
fn base_universe(n: usize) -> Universe {
    let dim = 4;
    Universe {
        name: "adversarial".into(),
        names: (0..n).map(|i| format!("p{i}")).collect(),
        costs: (0..n).map(|i| 50 + 10 * i as u64).collect(),
        embeddings: (0..n)
            .map(|i| {
                let mut v = vec![0.25f32; dim];
                v[i % dim] = 1.0;
                Embedding::new(v)
            })
            .collect(),
        exif: None,
        subsets: vec![
            SubsetDef {
                label: "q0".into(),
                weight: 2.0,
                members: (0..n as u32 / 2).collect(),
                relevance: vec![1.0; n / 2],
            },
            SubsetDef {
                label: "q1".into(),
                weight: 1.0,
                members: (n as u32 / 2..n as u32).collect(),
                relevance: vec![1.0; n - n / 2],
            },
        ],
        required: vec![0],
    }
}

/// Every way this harness knows to corrupt a universe.
fn corrupt(u: &mut Universe, case: u64, raw: u64) {
    match case % 13 {
        0 => u.subsets[0].weight = f64::NAN,
        1 => u.subsets[0].weight = f64::INFINITY,
        2 => u.subsets[1].weight = f64::NEG_INFINITY,
        3 => u.subsets[0].weight = 0.0,
        4 => u.subsets[0].relevance[0] = f64::NAN,
        5 => {
            let i = raw as usize % u.costs.len();
            u.costs[i] = 0;
        }
        6 => {
            // The per-photo costs are fine; their sum overflows u64.
            for c in &mut u.costs {
                *c = u64::MAX / 2;
            }
        }
        7 => {
            u.subsets[0].members.clear();
            u.subsets[0].relevance.clear();
        }
        8 => u.subsets[1].members[0] = u.num_photos() as u32 + raw as u32 % 1000,
        9 => u.required = vec![u.num_photos() as u32],
        10 => u.subsets[0].relevance.pop().map_or((), drop),
        11 => u.subsets[1].members[0] = u.subsets[1].members[1 % u.subsets[1].members.len()],
        12 => u.subsets[0].relevance[0] = -1.0,
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Adversarial universes through the full pipeline: serialization must
    /// not panic, parsing must reject or the solver must succeed or return
    /// a typed error — no panic anywhere.
    #[test]
    fn corrupted_pipeline_is_typed_or_valid(case in any::<u64>(), raw in any::<u64>(), n in 4usize..12) {
        let mut u = base_universe(n);
        corrupt(&mut u, case, raw);
        // to_text must serialize even hostile numerics (NaN/inf render as
        // their Display forms and round-trip through f64::from_str).
        let text = to_text(&u);
        match from_text(&text) {
            Err(_) => {} // typed rejection: the desired outcome for most cases
            Ok(parsed) => {
                // Zero-cost photos survive universe validation by design; the
                // instance builder inside represent() must reject them (or
                // solve must succeed) — never panic.
                let total = parsed.total_cost();
                for budget in [1, total / 2 + 1, total, u64::MAX] {
                    match Phocus::default().solve(&parsed, budget) {
                        Ok(report) => {
                            assert!(report.cost <= budget);
                            assert!(report.score.is_finite());
                        }
                        Err(e) => {
                            // Typed, displayable, and source-chained.
                            assert!(!e.to_string().is_empty());
                        }
                    }
                }
            }
        }
    }

    /// The builder path with hostile parameters: typed error or valid
    /// instance, decided entirely by validation.
    #[test]
    fn builder_never_panics(seed in any::<u64>(), n in 1usize..8) {
        let mut s = seed;
        let mut b = InstanceBuilder::new(splitmix(&mut s) % 10_000);
        for i in 0..n {
            // Costs include 0 (invalid) and huge values (sum may overflow).
            let cost = match splitmix(&mut s) % 4 {
                0 => 0,
                1 => u64::MAX / 2,
                _ => 1 + splitmix(&mut s) % 500,
            };
            b.add_photo(format!("p{i}"), cost);
        }
        let weight = match splitmix(&mut s) % 5 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => -1.0,
            3 => 0.0,
            _ => 1.5,
        };
        // Member ids intentionally range past the photo count.
        let members: Vec<PhotoId> = (0..1 + splitmix(&mut s) % 6)
            .map(|_| PhotoId((splitmix(&mut s) % (n as u64 + 3)) as u32))
            .collect();
        let relevance: Vec<f64> = members
            .iter()
            .map(|_| match splitmix(&mut s) % 4 {
                0 => f64::NAN,
                1 => -2.0,
                _ => 1.0,
            })
            .collect();
        b.add_subset("q", weight, members, relevance);
        if splitmix(&mut s).is_multiple_of(2) {
            b.require(PhotoId((splitmix(&mut s) % (n as u64 + 2)) as u32));
        }
        let _ = b.build_with_provider(&UnitSimilarity);
    }

    /// Raw similarity pairs with out-of-range indices and non-[0,1] values:
    /// `SparseSim::from_pairs` must reject with the matching typed error.
    #[test]
    fn sparse_pairs_are_typed(seed in any::<u64>(), n in 1usize..10, m in 0usize..12) {
        let mut s = seed;
        let mut pairs = Vec::with_capacity(m);
        for _ in 0..m {
            let i = (splitmix(&mut s) % (n as u64 * 2)) as u32;
            let j = (splitmix(&mut s) % (n as u64 * 2)) as u32;
            let sim = match splitmix(&mut s) % 6 {
                0 => f64::NAN,
                1 => -0.5,
                2 => 1.5,
                3 => f64::INFINITY,
                _ => (splitmix(&mut s) % 1000) as f64 / 1000.0,
            };
            pairs.push((i, j, sim));
        }
        match SparseSim::from_pairs(SubsetId(0), n, pairs.clone()) {
            Ok(sim) => {
                assert_eq!(sim.len(), n);
                // Only in-range, in-[0,1] pairs can have survived.
                for (i, j, s) in pairs {
                    if i != j && (i as usize) < n && (j as usize) < n && (0.0..=1.0).contains(&s) {
                        assert!(sim.sim(i as usize, j as usize) >= 0.0);
                    }
                }
            }
            Err(ModelError::PairIndexOutOfRange { index, members, .. }) => {
                assert!(index as usize >= members);
            }
            Err(ModelError::InvalidSimilarity { value, .. }) => {
                assert!(!(0.0..=1.0).contains(&value) || value.is_nan());
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The pack-reader fuzz gate: `unpack_instance` over corrupted binary images.
// ---------------------------------------------------------------------------

/// Pack layout constants mirrored from `par_core::pack` (the format spec in
/// DESIGN.md §15): 16-byte header, 32-byte table entries, 8 sections.
const PACK_HEADER: usize = 16;
const PACK_ENTRY: usize = 32;
const PACK_SECTIONS: usize = 8;

/// A small but structurally complete valid pack (sparse similarities, a
/// required photo, multiple components) the corruption cases start from.
fn base_pack() -> Vec<u8> {
    let inst = random_instance(
        7,
        &RandomInstanceConfig {
            photos: 30,
            subsets: 10,
            subset_size: (2, 5),
            cost_range: (100, 900),
            budget_fraction: 0.5,
            required_prob: 0.1,
        },
    );
    pack_instance(&inst).expect("fixture packs")
}

/// Byte range `[offset, offset + len)` of table entry `i`'s payload.
fn pack_section_bounds(bytes: &[u8], i: usize) -> (usize, usize) {
    let e = PACK_HEADER + i * PACK_ENTRY;
    let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
    (offset, len)
}

/// Recomputes table entry `i`'s checksum over its (possibly tampered)
/// payload, so corruption reaches the decode layer instead of dying at the
/// checksum comparison.
fn pack_fix_checksum(bytes: &mut [u8], i: usize) {
    let (offset, len) = pack_section_bounds(bytes, i);
    let sum = fnv1a64(&bytes[offset..offset + len]);
    let e = PACK_HEADER + i * PACK_ENTRY;
    bytes[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
}

/// Structured corruption that the reader is *guaranteed* to reject: every
/// mode breaks an invariant the format checks explicitly.
fn corrupt_pack_structurally(bytes: &mut Vec<u8>, mode: u64, raw: u64) {
    match mode % 8 {
        // Truncation strictly inside the image (a full-length "truncation"
        // would be a no-op).
        0 => {
            let cut = raw as usize % bytes.len();
            bytes.truncate(cut);
        }
        // Version skew: any version past the one the reader supports.
        1 => bytes[8..12].copy_from_slice(&(VERSION + 1 + (raw as u32) % 1000).to_le_bytes()),
        // A section count far past MAX_SECTIONS: the reader must reject it
        // before sizing anything from it.
        2 => bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes()),
        // Magic corruption.
        3 => bytes[raw as usize % 8] ^= 0xFF,
        // Table offset pointing past EOF.
        4 => {
            let e = PACK_HEADER + (raw as usize % PACK_SECTIONS) * PACK_ENTRY;
            bytes[e + 8..e + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        }
        // Inflated section length (also exercises offset+len overflow).
        5 => {
            let e = PACK_HEADER + (raw as usize % PACK_SECTIONS) * PACK_ENTRY;
            bytes[e + 16..e + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        // Duplicate section kind: stamp entry 0's kind onto a later entry.
        6 => {
            let e = PACK_HEADER + (1 + raw as usize % (PACK_SECTIONS - 1)) * PACK_ENTRY;
            let kind0: [u8; 4] = bytes[PACK_HEADER..PACK_HEADER + 4].try_into().unwrap();
            bytes[e..e + 4].copy_from_slice(&kind0);
        }
        // Overlapping sections: pull a later entry's offset back onto its
        // predecessor's.
        7 => {
            let e = PACK_HEADER + (1 + raw as usize % (PACK_SECTIONS - 1)) * PACK_ENTRY;
            let prev: [u8; 8] = bytes[e - PACK_ENTRY + 8..e - PACK_ENTRY + 16]
                .try_into()
                .unwrap();
            bytes[e + 8..e + 16].copy_from_slice(&prev);
        }
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every structural corruption mode yields a typed [`par_core::PackError`]
    /// — never a panic, never an `Ok`.
    #[test]
    fn pack_reader_rejects_structural_corruption(mode in any::<u64>(), raw in any::<u64>()) {
        let mut bytes = base_pack();
        corrupt_pack_structurally(&mut bytes, mode, raw);
        let err = unpack_instance(&bytes).expect_err("corrupted pack must not load");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Arbitrary bit flips anywhere in the image: the reader either rejects
    /// with a typed error or (for bytes the format ignores, e.g. reserved
    /// table fields) loads a valid instance — it never panics.
    #[test]
    fn pack_reader_never_panics_on_bit_flips(seed in any::<u64>(), flips in 1usize..8) {
        let mut bytes = base_pack();
        let mut s = seed;
        for _ in 0..flips {
            let i = (splitmix(&mut s) % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << (splitmix(&mut s) % 8);
        }
        if let Ok(loaded) = unpack_instance(&bytes) {
            // Whatever survived must still be internally consistent enough
            // to answer basic shape queries.
            let _ = loaded.instance.num_photos();
            let _ = loaded.labels.num_shards();
        }
    }

    /// Payload tampering with the checksum *fixed up afterwards*, so the
    /// corruption reaches the decode layer's bounds and cross-section
    /// validation rather than dying at the checksum comparison. Typed error
    /// or valid load; no panic, no unbounded allocation.
    #[test]
    fn pack_reader_survives_checksummed_payload_tampering(
        sec in 0usize..PACK_SECTIONS, seed in any::<u64>(), flips in 1usize..6,
    ) {
        let mut bytes = base_pack();
        let (offset, len) = pack_section_bounds(&bytes, sec);
        prop_assume!(len > 0);
        let mut s = seed;
        for _ in 0..flips {
            let i = offset + (splitmix(&mut s) % len as u64) as usize;
            bytes[i] ^= 1 << (splitmix(&mut s) % 8);
        }
        pack_fix_checksum(&mut bytes, sec);
        let _ = unpack_instance(&bytes);
    }

    /// Raw byte soup, optionally behind a valid header+table prefix so the
    /// decode layers are reached often, not just the header checks.
    #[test]
    fn pack_reader_never_panics_on_byte_soup(
        seed in any::<u64>(), len in 0usize..600, keep_prefix in any::<bool>(),
    ) {
        let mut s = seed;
        let mut bytes = if keep_prefix {
            let mut b = base_pack();
            b.truncate(PACK_HEADER + PACK_SECTIONS * PACK_ENTRY);
            b
        } else {
            Vec::new()
        };
        for _ in 0..len {
            bytes.push((splitmix(&mut s) % 256) as u8);
        }
        let _ = unpack_instance(&bytes);
    }
}

/// A hostile META section claiming ~4 billion photos must die at the
/// element-count-vs-remaining-bytes cap check — a typed error, not an OOM
/// attempt. (The checksum is fixed up so the claim reaches the decoder.)
#[test]
fn pack_reader_caps_allocations_before_trusting_counts() {
    let mut bytes = base_pack();
    // META is the first section; its second u64 is `num_photos`.
    let (offset, _) = pack_section_bounds(&bytes, 0);
    bytes[offset + 8..offset + 16].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
    pack_fix_checksum(&mut bytes, 0);
    let err = unpack_instance(&bytes).expect_err("hostile count must not load");
    assert!(!err.to_string().is_empty());
}

/// The empty image and the bare header are the smallest corrupt packs.
#[test]
fn pack_reader_rejects_trivial_images() {
    assert!(unpack_instance(&[]).is_err());
    let valid = base_pack();
    assert!(unpack_instance(&valid[..PACK_HEADER]).is_err());
    assert!(unpack_instance(&valid).is_ok());
}

/// Regression: a required set `S₀` costing more than the budget is a typed
/// `RequiredSetOverBudget`, not a panic (the seed repo asserted).
#[test]
fn required_set_over_budget_is_a_typed_error() {
    let u = base_universe(8);
    let floor: u64 = u.required.iter().map(|&r| u.costs[r as usize]).sum();
    let result = Phocus::default().solve(&u, floor - 1);
    match result {
        Err(PhocusError::Model(ModelError::RequiredSetOverBudget {
            required_cost,
            budget,
        })) => {
            assert_eq!(required_cost, floor);
            assert_eq!(budget, floor - 1);
        }
        other => panic!("expected RequiredSetOverBudget, got {other:?}"),
    }
}

/// Regression: `expand_with_variants` used to `assert!` on user-supplied
/// ladder values mid-expansion. Validation now lives in the
/// [`ActionLadder`] constructor as a typed error, so hostile ladders cannot
/// reach library code at all.
#[test]
fn hostile_ladder_values_are_typed_errors() {
    for (size_fraction, quality) in [
        (0.0, 0.5),
        (1.0, 0.5),
        (-1.0, 0.5),
        (f64::NAN, 0.5),
        (f64::INFINITY, 0.5),
        (f64::NEG_INFINITY, 0.5),
        (f64::MIN_POSITIVE, 1.0),
        (0.5, 0.0),
        (0.5, f64::NAN),
        (0.5, 1.0 + f64::EPSILON),
    ] {
        let err = ActionLadder::new(vec![CompressionLevel {
            size_fraction,
            quality,
        }])
        .expect_err("hostile level must not validate");
        let msg = err.to_string();
        assert!(
            matches!(err, PhocusError::InvalidLadder { level: 0, .. }),
            "({size_fraction}, {quality}) → {msg}"
        );
        assert!(msg.contains("ladder level"), "opaque diagnostic: {msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary f64 bit patterns never panic the ladder constructor: every
    /// input either validates (both values finite and strictly inside
    /// (0,1)) or yields a typed [`PhocusError::InvalidLadder`].
    #[test]
    fn ladder_constructor_never_panics(seed in any::<u64>(), n in 0usize..6) {
        let mut s = seed;
        let levels: Vec<CompressionLevel> = (0..n)
            .map(|_| {
                // Half raw bit soup (NaNs, infinities, denormals), half
                // small finite values straddling the (0,1) boundaries.
                let draw = |s: &mut u64| {
                    let bits = splitmix(s);
                    if bits & 1 == 0 {
                        f64::from_bits(bits)
                    } else {
                        (bits >> 32) as f64 / (u32::MAX as f64 / 2.0) - 0.5
                    }
                };
                CompressionLevel {
                    size_fraction: draw(&mut s),
                    quality: draw(&mut s),
                }
            })
            .collect();
        let in_range = |v: f64| v > 0.0 && v < 1.0;
        let all_valid = levels.iter().all(|l| in_range(l.size_fraction) && in_range(l.quality));
        match ActionLadder::new(levels) {
            Ok(ladder) => prop_assert!(all_valid || ladder.is_empty()),
            Err(e) => {
                prop_assert!(!all_valid);
                prop_assert!(matches!(e, PhocusError::InvalidLadder { .. }));
            }
        }
    }

    /// Byte-soup `--ladder` specs never panic the parser.
    #[test]
    fn ladder_spec_parsing_never_panics(seed in any::<u64>(), len in 0usize..40) {
        const CHARSET: &[u8] = b"0123456789aeEnN:.,+-_ paper";
        let mut s = seed;
        let spec: String = (0..len)
            .map(|_| CHARSET[(splitmix(&mut s) as usize) % CHARSET.len()] as char)
            .collect();
        match ActionLadder::parse(&spec) {
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(e, PhocusError::InvalidLadder { .. })),
        }
    }
}

/// The typed error chain renders a readable diagnostic end to end.
#[test]
fn pipeline_errors_are_displayable_and_chained() {
    let err = from_text("subset\tq\tNaN\t0:1").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("weight") || msg.contains("NaN"), "opaque: {msg}");

    let phocus_err = PhocusError::from(err);
    assert!(std::error::Error::source(&phocus_err).is_some());
}

//! The tenant catalog: a directory of `phocus-pack` files plus one
//! memory-resident index.
//!
//! Haystack's core lesson is that *metadata lookups*, not data reads, kill
//! photo-store throughput — so the catalog keeps its entire index (tenant
//! name → pack path, pack digest, photo count, budget) resident in memory
//! after one read of `catalog.idx`. Serving a tenant then costs exactly one
//! file read plus a checksummed [`par_core::unpack_instance`] bulk load; no
//! directory walks, no text parsing, no representation pipeline.
//!
//! # Directory layout
//!
//! ```text
//! <root>/catalog.idx      the index (format below)
//! <root>/pk00000.pack     one phocus-pack per tenant, named by entry index
//! ```
//!
//! Pack files are named by entry index, not tenant name, so arbitrary
//! tenant names (slashes, unicode) never touch the filesystem namespace;
//! the name → file mapping lives only in the index.
//!
//! # Index format (`catalog.idx`)
//!
//! ```text
//! # phocus-catalog v3
//! tenant\t<name>\t<pack file>\t<table digest hex>\t<photos>\t<budget>
//! ```
//!
//! One line of exactly six fields per tenant, sorted by tenant name
//! (strictly ascending — the builder rejects duplicates), so lookups are a
//! binary search over the resident entries and the index bytes are a
//! deterministic function of its contents. The digest is
//! [`par_core::table_digest`]: FNV-1a over the pack's header and section
//! table, which carries every section's checksum. [`Catalog::load`] checks
//! it, then the pack reader checks each section against its table entry, so
//! every pack byte is hashed once and a stale or corrupted pack is a typed
//! [`PhocusError::Catalog`] / [`PhocusError::Pack`](crate::PhocusError),
//! never a wrong answer. A v2 index (whole-file checksums) is a
//! [`PhocusError::Catalog`].

use crate::error::{PhocusError, Result};
use par_core::{table_digest, unpack_instance, PackedInstance};
use std::path::{Path, PathBuf};

/// File name of the catalog index inside the catalog directory.
pub const INDEX_FILE: &str = "catalog.idx";
/// First line of a v3 index.
const HEADER: &str = "# phocus-catalog v3";

/// One tenant's resident metadata: where its pack lives and what bytes it
/// must hash to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Tenant name (the universe name at build time).
    pub name: String,
    /// Pack file name, relative to the catalog root.
    pub pack: String,
    /// [`table_digest`] of the pack file.
    pub checksum: u64,
    /// Photo count, resident so schedulers (LPT) never open the pack.
    pub photos: u64,
    /// The budget the pack was represented under (bytes).
    pub budget: u64,
}

/// A memory-resident catalog over a directory of `phocus-pack` files.
#[derive(Debug, Clone)]
pub struct Catalog {
    root: PathBuf,
    /// Sorted by `name`, strictly ascending.
    entries: Vec<CatalogEntry>,
}

fn io_err(path: &Path, e: &std::io::Error) -> PhocusError {
    PhocusError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn index_err(path: &Path, line: usize, message: impl Into<String>) -> PhocusError {
    PhocusError::Catalog {
        entry: format!("{}:{line}", path.display()),
        message: message.into(),
    }
}

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

impl Catalog {
    /// Opens a catalog directory: reads and parses `catalog.idx` once; every
    /// later lookup and load uses the resident entries only.
    pub fn open(root: impl Into<PathBuf>) -> Result<Catalog> {
        let root = root.into();
        let index = root.join(INDEX_FILE);
        let text = std::fs::read_to_string(&index).map_err(|e| io_err(&index, &e))?;
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim_end() == HEADER => {}
            _ => {
                return Err(index_err(&index, 1, format!("missing header `{HEADER}`")));
            }
        }
        let mut entries: Vec<CatalogEntry> = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut f = line.split('\t');
            if f.next() != Some("tenant") {
                return Err(index_err(&index, lineno, "expected a `tenant` record"));
            }
            let mut field = |what: &'static str| {
                f.next()
                    .ok_or_else(|| index_err(&index, lineno, format!("missing field: {what}")))
            };
            let name = field("name")?.to_string();
            let pack = field("pack file")?.to_string();
            let checksum = parse_hex64(field("pack checksum")?)
                .ok_or_else(|| index_err(&index, lineno, "bad pack checksum"))?;
            let photos = field("photos")?
                .parse::<u64>()
                .map_err(|_| index_err(&index, lineno, "bad photo count"))?;
            let budget = field("budget")?
                .parse::<u64>()
                .map_err(|_| index_err(&index, lineno, "bad budget"))?;
            if f.next().is_some() {
                return Err(index_err(
                    &index,
                    lineno,
                    "a tenant record has exactly six fields",
                ));
            }
            if let Some(prev) = entries.last() {
                if prev.name.as_str() >= name.as_str() {
                    return Err(index_err(
                        &index,
                        lineno,
                        "tenant names out of order (index must be sorted, unique)",
                    ));
                }
            }
            entries.push(CatalogEntry {
                name,
                pack,
                checksum,
                photos,
                budget,
            });
        }
        Ok(Catalog { root, entries })
    }

    /// The catalog directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All entries, sorted by tenant name.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Looks up a tenant by name (binary search over the resident index).
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Loads one tenant's instance from its pack: one file read, the
    /// header-and-table digest against the index, then the checksummed
    /// section-table bulk load. Returns the reconstructed instance with its
    /// persisted shard labels.
    pub fn load(&self, entry: &CatalogEntry) -> Result<PackedInstance> {
        let path = self.root.join(&entry.pack);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, &e))?;
        if table_digest(&bytes).ok() != Some(entry.checksum) {
            return Err(PhocusError::Catalog {
                entry: entry.name.clone(),
                message: format!("pack {} does not match its indexed checksum", entry.pack),
            });
        }
        Ok(unpack_instance(&bytes)?)
    }

    /// [`load`](Self::load) by tenant name.
    pub fn load_by_name(&self, name: &str) -> Result<PackedInstance> {
        let entry = self.get(name).ok_or_else(|| PhocusError::Catalog {
            entry: name.to_string(),
            message: "no such tenant in the catalog".into(),
        })?;
        self.load(entry)
    }
}

/// Builds a catalog directory: add packs tenant by tenant, then
/// [`finish`](CatalogBuilder::finish) writes the sorted index.
#[derive(Debug)]
pub struct CatalogBuilder {
    root: PathBuf,
    entries: Vec<CatalogEntry>,
}

impl CatalogBuilder {
    /// Creates (or reuses) the catalog directory.
    pub fn create(root: impl Into<PathBuf>) -> Result<CatalogBuilder> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| io_err(&root, &e))?;
        Ok(CatalogBuilder {
            root,
            entries: Vec::new(),
        })
    }

    /// Writes `bytes` (a `phocus-pack` image from
    /// [`par_core::pack_instance`]) as the next pack file and records its
    /// entry. `photos` and `budget` become resident metadata.
    pub fn add_pack(&mut self, name: &str, bytes: &[u8], photos: u64, budget: u64) -> Result<()> {
        let checksum = table_digest(bytes)?;
        let file = format!("pk{:05}.pack", self.entries.len());
        let path = self.root.join(&file);
        std::fs::write(&path, bytes).map_err(|e| io_err(&path, &e))?;
        self.entries.push(CatalogEntry {
            name: name.to_string(),
            pack: file,
            checksum,
            photos,
            budget,
        });
        Ok(())
    }

    /// Sorts the entries by tenant name, rejects duplicates, writes
    /// `catalog.idx`, and returns the resident catalog.
    pub fn finish(mut self) -> Result<Catalog> {
        self.entries.sort_by(|a, b| a.name.cmp(&b.name));
        for w in self.entries.windows(2) {
            if w[0].name == w[1].name {
                return Err(PhocusError::Catalog {
                    entry: w[0].name.clone(),
                    message: "duplicate tenant name".into(),
                });
            }
        }
        let mut text = String::from(HEADER);
        text.push('\n');
        for e in &self.entries {
            text.push_str(&format!(
                "tenant\t{}\t{}\t{:016x}\t{}\t{}\n",
                e.name, e.pack, e.checksum, e.photos, e.budget
            ));
        }
        let index = self.root.join(INDEX_FILE);
        std::fs::write(&index, text).map_err(|e| io_err(&index, &e))?;
        Ok(Catalog {
            root: self.root,
            entries: self.entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::fixtures::{figure1_instance, MB};
    use par_core::pack_instance;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phocus-catalog-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn build_open_load_round_trip() {
        let dir = tmpdir("roundtrip");
        let inst = figure1_instance(4 * MB);
        let bytes = pack_instance(&inst).expect("packable");
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("zeta", &bytes, inst.num_photos() as u64, inst.budget()).unwrap();
        b.add_pack("alpha", &bytes, inst.num_photos() as u64, inst.budget()).unwrap();
        let built = b.finish().unwrap();
        assert_eq!(built.entries().len(), 2);
        // Sorted by name regardless of add order.
        assert_eq!(built.entries()[0].name, "alpha");

        let opened = Catalog::open(&dir).unwrap();
        assert_eq!(opened.entries(), built.entries());
        let entry = opened.get("zeta").unwrap();
        let loaded = opened.load(entry).unwrap();
        assert_eq!(loaded.instance.num_photos(), inst.num_photos());
        assert_eq!(loaded.instance.budget(), inst.budget());
        assert!(opened.get("nope").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_pack_fails_checksum() {
        let dir = tmpdir("stale");
        let inst = figure1_instance(4 * MB);
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("t", &pack_instance(&inst).expect("packable"), 6, inst.budget()).unwrap();
        let cat = b.finish().unwrap();
        // Overwrite the pack behind the index's back: with bytes that are
        // not a pack, and with another tenant's valid pack.
        let other = pack_instance(&figure1_instance(5 * MB)).expect("packable");
        for stale in [&b"garbage"[..], &other] {
            std::fs::write(dir.join(&cat.entries()[0].pack), stale).unwrap();
            let err = cat.load_by_name("t").unwrap_err();
            assert!(matches!(err, PhocusError::Catalog { .. }), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_tenants_rejected() {
        let dir = tmpdir("dup");
        let inst = figure1_instance(4 * MB);
        let bytes = pack_instance(&inst).expect("packable");
        let mut b = CatalogBuilder::create(&dir).unwrap();
        b.add_pack("same", &bytes, 6, 1).unwrap();
        b.add_pack("same", &bytes, 6, 1).unwrap();
        assert!(b.finish().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_index_is_typed() {
        let dir = tmpdir("malformed");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(INDEX_FILE), "# wrong header\n").unwrap();
        assert!(matches!(
            Catalog::open(&dir).unwrap_err(),
            PhocusError::Catalog { .. }
        ));
        std::fs::write(
            dir.join(INDEX_FILE),
            "# phocus-catalog v3\ntenant\tx\tp.pack\tzz\t1\t1\n",
        )
        .unwrap();
        assert!(matches!(
            Catalog::open(&dir).unwrap_err(),
            PhocusError::Catalog { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_index_and_artifact_columns_are_typed_errors() {
        let dir = tmpdir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let record = "tenant\tx\tpk00000.pack\t00000000000000ff\t1\t1";
        for text in [
            // Older headers in front of an otherwise valid v3 record: a v2
            // index holds whole-file checksums, not table digests.
            format!("# phocus-catalog v1\n{record}\n"),
            format!("# phocus-catalog v2\n{record}\n"),
            // A v1 record: eight fields, artifact columns included.
            format!("{HEADER}\n{record}\t-\t-\n"),
        ] {
            std::fs::write(dir.join(INDEX_FILE), &text).unwrap();
            assert!(
                matches!(
                    Catalog::open(&dir).unwrap_err(),
                    PhocusError::Catalog { .. }
                ),
                "{text:?} must be rejected"
            );
        }
        // The same record under the v3 header opens.
        std::fs::write(dir.join(INDEX_FILE), format!("{HEADER}\n{record}\n")).unwrap();
        assert_eq!(Catalog::open(&dir).unwrap().entries().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

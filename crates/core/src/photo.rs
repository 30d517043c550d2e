//! The [`Photo`] record: identity, human-readable name, and byte cost.

use crate::PhotoId;
use std::sync::Arc;

/// A photo in the archive.
///
/// The model only needs the photo's *cost* — the disk space (in bytes)
/// required to store it — plus an identifier. The `name` field carries a
/// human-readable label (file name, product title, …) that flows into reports
/// and the user-study tooling but plays no role in optimization. It is an
/// `Arc<str>` because epoch deltas rebuild the photo table every epoch
/// ([`crate::delta`]): surviving photos share their name storage with the
/// pre-delta instance instead of deep-copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct Photo {
    /// Dense identifier of this photo within its instance.
    pub id: PhotoId,
    /// Human-readable label (file name, product title, …).
    pub name: Arc<str>,
    /// Storage cost in bytes. Must be strictly positive.
    pub cost: u64,
}

impl Photo {
    /// Creates a photo record.
    pub fn new(id: PhotoId, name: impl Into<Arc<str>>, cost: u64) -> Self {
        Photo {
            id,
            name: name.into(),
            cost,
        }
    }

    /// Cost expressed in (binary) megabytes, for reporting.
    pub fn cost_mb(&self) -> f64 {
        self.cost as f64 / (1024.0 * 1024.0)
    }
}

/// Formats a byte count using decimal units, e.g. `1.50 MB` for 1 500 000
/// bytes — the megabyte that `--budget-mb` reads.
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "kB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1000.0 && unit < UNITS.len() - 1 {
        value /= 1000.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photo_cost_mb() {
        let p = Photo::new(PhotoId(0), "eiffel.jpg", 2 * 1024 * 1024);
        assert!((p.cost_mb() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.05 kB");
        assert_eq!(format_bytes(3_000_000), "3.00 MB");
        assert_eq!(format_bytes(5_000_000_000), "5.00 GB");
        assert_eq!(format_bytes(7_250_000_000_000), "7.25 TB");
    }
}

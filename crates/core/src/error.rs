//! Error types for model construction and validation.

use crate::{PhotoId, SubsetId};
use std::fmt;

/// Convenience result alias used throughout `par-core`.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Errors raised while building or validating a PAR instance or solution.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A photo id referenced a photo that does not exist in the instance.
    UnknownPhoto(PhotoId),
    /// A subset id referenced a subset that does not exist in the instance.
    UnknownSubset(SubsetId),
    /// A subset was declared with no member photos.
    EmptySubset(SubsetId),
    /// A subset's member list contains the same photo twice.
    DuplicateMember {
        /// The offending subset.
        subset: SubsetId,
        /// The duplicated photo.
        photo: PhotoId,
    },
    /// A subset's relevance vector length does not match its member count.
    RelevanceLengthMismatch {
        /// The offending subset.
        subset: SubsetId,
        /// Number of member photos.
        members: usize,
        /// Number of relevance entries supplied.
        relevances: usize,
    },
    /// Relevance scores must be positive and finite before normalization.
    InvalidRelevance {
        /// The offending subset.
        subset: SubsetId,
        /// The offending value.
        value: f64,
    },
    /// Subset weights must be positive and finite.
    InvalidWeight {
        /// The offending subset.
        subset: SubsetId,
        /// The offending value.
        value: f64,
    },
    /// A similarity score fell outside `[0, 1]`.
    InvalidSimilarity {
        /// The offending subset (context).
        subset: SubsetId,
        /// The offending value.
        value: f64,
    },
    /// A similarity pair referenced a local member index outside the subset.
    PairIndexOutOfRange {
        /// The offending subset (context).
        subset: SubsetId,
        /// The out-of-range local member index.
        index: u32,
        /// Number of members in the subset.
        members: usize,
    },
    /// A photo was declared with zero cost, which breaks cost-benefit rules.
    ZeroCostPhoto(PhotoId),
    /// The stored mandatory-retention set `S₀` is not strictly ascending:
    /// the photo listed out of order (or twice).
    RequiredNotAscending(PhotoId),
    /// The mandatory-retention set `S₀` alone exceeds the budget.
    RequiredSetOverBudget {
        /// Total cost of `S₀` in bytes.
        required_cost: u64,
        /// The storage budget in bytes.
        budget: u64,
    },
    /// A solution omitted a photo that policy requires to be retained.
    MissingRequiredPhoto(PhotoId),
    /// A solution's total cost exceeds the budget.
    OverBudget {
        /// Total cost of the solution in bytes.
        cost: u64,
        /// The storage budget in bytes.
        budget: u64,
    },
    /// The instance has no photos at all.
    NoPhotos,
    /// A cost accumulation `C(S)` overflowed `u64`. Raised at instance
    /// construction (total archive cost) and solution validation, so the
    /// solver's internal running sums — always sub-sums of the validated
    /// total — can stay unchecked.
    CostOverflow,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownPhoto(p) => write!(f, "unknown photo {p}"),
            ModelError::UnknownSubset(q) => write!(f, "unknown subset {q}"),
            ModelError::EmptySubset(q) => write!(f, "subset {q} has no members"),
            ModelError::DuplicateMember { subset, photo } => {
                write!(f, "subset {subset} lists photo {photo} more than once")
            }
            ModelError::RelevanceLengthMismatch {
                subset,
                members,
                relevances,
            } => write!(
                f,
                "subset {subset} has {members} members but {relevances} relevance scores"
            ),
            ModelError::InvalidRelevance { subset, value } => {
                write!(f, "subset {subset} has invalid relevance score {value}")
            }
            ModelError::InvalidWeight { subset, value } => {
                write!(f, "subset {subset} has invalid weight {value}")
            }
            ModelError::InvalidSimilarity { subset, value } => {
                write!(
                    f,
                    "similarity {value} in context {subset} is outside [0, 1]"
                )
            }
            ModelError::PairIndexOutOfRange {
                subset,
                index,
                members,
            } => write!(
                f,
                "similarity pair in context {subset} references local index {index}, \
                 but the subset has only {members} members"
            ),
            ModelError::ZeroCostPhoto(p) => write!(f, "photo {p} has zero cost"),
            ModelError::RequiredNotAscending(p) => {
                write!(f, "required set lists photo {p} out of ascending order")
            }
            ModelError::RequiredSetOverBudget {
                required_cost,
                budget,
            } => write!(
                f,
                "required set costs {required_cost} bytes, exceeding budget {budget}"
            ),
            ModelError::MissingRequiredPhoto(p) => {
                write!(f, "solution omits required photo {p}")
            }
            ModelError::OverBudget { cost, budget } => {
                write!(f, "solution costs {cost} bytes, exceeding budget {budget}")
            }
            ModelError::NoPhotos => write!(f, "instance contains no photos"),
            ModelError::CostOverflow => {
                write!(f, "total photo cost overflows a 64-bit byte count")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ModelError::OverBudget {
            cost: 10,
            budget: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));

        let e = ModelError::DuplicateMember {
            subset: SubsetId(3),
            photo: PhotoId(9),
        };
        assert!(e.to_string().contains("q3"));
        assert!(e.to_string().contains("p9"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&ModelError::NoPhotos);
    }
}

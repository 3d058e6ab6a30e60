//! Geometry construction and validation errors.

use std::fmt;

/// Why a geometry failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate,
    /// A `LineString` needs at least two distinct points.
    TooFewPoints { expected: usize, got: usize },
    /// A ring must close (first point equals last point).
    RingNotClosed,
    /// A ring has zero area (all points collinear).
    DegenerateRing,
    /// Consecutive duplicate points in a line or ring.
    RepeatedPoint { index: usize },
    /// A ring intersects itself.
    SelfIntersection,
    /// A hole is not properly inside the exterior ring.
    HoleOutsideShell { hole: usize },
    /// Hole `inner` lies inside hole `outer` (every vertex inside or on
    /// it, at least one strictly inside).
    NestedHole { outer: usize, inner: usize },
    /// Components of a multi-geometry overlap where they must be disjoint.
    ComponentsNotDisjoint { a: usize, b: usize },
    /// The WKT input could not be parsed.
    WktParse { position: usize, message: String },
    /// An operation is not supported for the given geometry kind.
    Unsupported(&'static str),
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::NonFiniteCoordinate => write!(f, "coordinate is NaN or infinite"),
            GeomError::TooFewPoints { expected, got } => {
                write!(f, "too few points: expected at least {expected}, got {got}")
            }
            GeomError::RingNotClosed => write!(f, "ring is not closed"),
            GeomError::DegenerateRing => write!(f, "ring has zero area"),
            GeomError::RepeatedPoint { index } => {
                write!(f, "repeated consecutive point at index {index}")
            }
            GeomError::SelfIntersection => write!(f, "ring intersects itself"),
            GeomError::HoleOutsideShell { hole } => {
                write!(f, "hole {hole} is not inside the exterior ring")
            }
            GeomError::NestedHole { outer, inner } => {
                write!(f, "hole {inner} is nested inside hole {outer}")
            }
            GeomError::ComponentsNotDisjoint { a, b } => {
                write!(f, "multi-geometry components {a} and {b} are not disjoint")
            }
            GeomError::WktParse { position, message } => {
                write!(f, "WKT parse error at byte {position}: {message}")
            }
            GeomError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for GeomError {}

/// Convenience alias for geometry results.
pub type GeomResult<T> = Result<T, GeomError>;

//! # geopattern-mining
//!
//! Frequent-pattern mining for the `geopattern` system, implementing the
//! algorithm family of *Filtering Frequent Spatial Patterns with
//! Qualitative Spatial Reasoning* (Bogorny, Moelans & Alvares, ICDE 2007):
//!
//! * [`apriori`] — **Apriori**, **Apriori-KC** and **Apriori-KC+**
//!   (Listing 1 of the paper) as one engine parameterised by the pairs
//!   removed from `C₂`, with two support-counting backends
//!   ([`CountingStrategy`]: the horizontal prefix trie and the vertical
//!   bitmap engine);
//! * [`bitmap`] — vertical TID representations (word-packed bitsets and a
//!   hybrid dense/sparse [`TidList`]) and the triangular pass-2 kernel
//!   behind the `bitmap` counting strategy;
//! * [`filter`] — the [`PairFilter`] abstraction: `Φ` dependency pairs
//!   (KC) and same-feature-type pairs (KC+);
//! * [`fpgrowth`] — FP-Growth with the same filter, demonstrating the
//!   paper's claim that the step is algorithm-agnostic (and serving as an
//!   oracle in tests);
//! * [`gain`] — the §4.1 analysis: the `Σ C(m,i)` lower bound and
//!   **Formula 1** (minimal gain), evaluated in closed form;
//! * [`rules`] — association-rule generation with support / confidence /
//!   lift / leverage / conviction;
//! * [`closed`] — closed and maximal itemset post-processing (the paper's
//!   future work);
//! * [`item`], [`result`] — dictionary-encoded transactions with
//!   feature-type metadata, and mining outputs with invariant checks.
//!
//! # Example
//!
//! ```
//! use geopattern_mining::{
//!     mine, AprioriConfig, MinSupport, PairFilter, TransactionSet,
//! };
//!
//! // Rows in the paper's label notation: `relation_featureType`.
//! let data = TransactionSet::from_paper_labels(&[
//!     vec!["murderRate=high", "contains_slum", "touches_slum"],
//!     vec!["murderRate=high", "contains_slum", "touches_slum"],
//!     vec!["murderRate=low", "contains_slum"],
//! ]);
//!
//! let plain = mine(&data, &AprioriConfig::apriori(MinSupport::Fraction(0.5)));
//! let kc_plus = mine(
//!     &data,
//!     &AprioriConfig::apriori_kc_plus(
//!         MinSupport::Fraction(0.5),
//!         PairFilter::none(),
//!         PairFilter::same_feature_type(&data.catalog),
//!     ),
//! );
//! // The meaningless {contains_slum, touches_slum} pair is gone.
//! assert!(kc_plus.num_frequent_min2() < plain.num_frequent_min2());
//! ```

pub mod apriori;
pub mod bitmap;
pub mod closed;
pub mod eclat;
pub mod filter;
pub mod fpgrowth;
pub mod gain;
pub mod item;
pub(crate) mod journal;
pub mod result;
pub(crate) mod robust;
pub mod rules;

pub use apriori::{apriori_gen, mine, try_mine, AprioriConfig, CountingStrategy};
pub use bitmap::{TidList, TidSet, TriangularC2, SPARSE_FACTOR};
pub use closed::{closed_itemsets, maximal_itemsets};
pub use eclat::{mine_eclat, try_mine_eclat, EclatConfig};
pub use filter::PairFilter;
pub use fpgrowth::{mine_fp, try_mine_fp, FpGrowthConfig};
pub use gain::{binomial, itemset_count_lower_bound, minimal_gain, table3};
pub use item::{ItemCatalog, ItemId, TransactionSet};
pub use result::{FrequentItemset, MiningResult, MiningStats, MinSupport};
pub use rules::{generate_rules, non_redundant_rules, AssociationRule};

//! Data sets for `cumf-rs`.
//!
//! The paper evaluates on three public data sets (Netflix, YahooMusic,
//! Hugewiki) and three synthetic data sets matching the published sizes of
//! SparkALS, Factorbird and Facebook workloads (Table 5).  None of the
//! public data can be redistributed here, and the largest synthetic sets
//! (112 billion ratings) cannot be materialized on a laptop, so this crate
//! provides:
//!
//! * [`datasets`] — descriptors carrying each data set's *full-scale*
//!   dimensions `(m, n, Nz, f, λ)` exactly as reported in Table 5.  The
//!   analytic cost model prices iterations at this scale.
//! * [`synth`] — a synthetic rating generator: a ground-truth low-rank model
//!   plus noise, with Zipf-distributed item popularity and user activity, so
//!   that ALS/SGD convergence behaviour (what Figures 6–10 measure) is
//!   realistic.  Convergence experiments run on a *scaled-down* instance of
//!   each descriptor; timing is extrapolated analytically.
//! * [`split`] — train/test splitting used for test-RMSE curves, and the
//!   seeded [`shuffle`] behind every shuffled visit order.
//! * [`stream`] — streaming rating ingestion for the online loop: the
//!   [`stream::RatingStream`] sources (synthetic mutation stream, replay)
//!   and the bounded [`stream::StreamBatcher`] that stamps ingest instants
//!   and hands the trainer time-ordered mini-batches.

#![forbid(unsafe_code)]
pub mod datasets;
pub mod io;
pub mod split;
pub mod stream;
pub mod synth;

pub use datasets::{DatasetSpec, PaperDataset};
pub use io::{read_csv_triplets, read_matrix_market, write_csv_triplets, write_matrix_market};
pub use split::{shuffle, train_test_split, TrainTest};
pub use stream::{
    BackpressurePolicy, MiniBatch, MutationStreamConfig, RatingEvent, RatingStream, ReplayStream,
    StreamBatcher, SyntheticMutationStream,
};
pub use synth::{SyntheticConfig, SyntheticDataset};

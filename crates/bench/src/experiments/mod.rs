//! Experiment implementations (one module per DESIGN.md §6 entry).

pub mod churn;
pub mod common;
pub mod complexity;
pub mod convergence;
pub mod decreased;
pub mod dtree;
pub mod landmark_policies;
pub mod mapping;
pub mod quality;
pub mod restart;
pub mod setup_delay;
pub mod superpeers;

//! End-to-end benchmark of the GPUnion reproduction.
//!
//! Three seeded workloads (`campus_trace`, `provider_churn`,
//! `fleet_scale`) are generated here and driven through the public API of
//! `gpunion-core` on one thread. The binary (`src/main.rs`) times them,
//! checks their outputs and prints the metrics; `README.md` lists the
//! metrics and what each is expected to move.

pub mod driver;
pub mod hostspeed;
pub mod outcomes;
pub mod workloads;

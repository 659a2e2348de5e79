#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! `foldic` — block folding and bonding styles for power reduction in
//! two-tier 3D ICs.
//!
//! This crate implements the methodology of *"On Enhancing Power Benefits
//! in 3D ICs: Block Folding and Bonding Styles Perspective"* (DAC 2014) on
//! top of the `foldic-*` substrate crates:
//!
//! * [`flow`] — the RTL-to-GDSII-style block flow (§2.2): placement,
//!   wiring analysis, STA with chip-level port budgets, iterative timing
//!   and power optimization, power sign-off;
//! * [`folding`] — the paper's contribution (§4–§5): folding-candidate
//!   selection by the three criteria of §4.1, the full block-folding flow
//!   (partition → per-tier mixed-size placement → TSV / F2F-via placement
//!   → re-optimization), the second-level FUB folding of the SPARC core,
//!   and the partition-quality sweep behind Fig. 7;
//! * [`fullchip`] — assembly of the five chip styles of Fig. 8 (2D,
//!   core/cache, core/core, folded + TSV, folded + F2F) with chip-level
//!   routing, TSV planning and power roll-up (§3, §6);
//! * [`metrics`] — the `DesignMetrics` / `Comparison` records every table
//!   of the paper is printed from.
//!
//! # Quickstart
//!
//! ```no_run
//! use foldic::prelude::*;
//!
//! // a reduced synthetic OpenSPARC T2
//! let (mut design, tech) = T2Config::tiny().generate();
//!
//! // fold the crossbar the natural way (PCX on one die, CPX on the other)
//! let id = design.find_block("ccx").unwrap();
//! let cfg = FoldConfig {
//!     strategy: FoldStrategy::NaturalGroups(vec!["pcx".into()]),
//!     bonding: BondingStyle::FaceToFace,
//!     ..FoldConfig::default()
//! };
//! let folded = fold_block(design.block_mut(id), &tech, &cfg).unwrap();
//! println!("3D connections: {}", folded.metrics.num_3d_connections);
//! ```

pub mod flow;
pub mod folding;
pub mod fullchip;
pub mod metrics;
pub mod render;

pub use flow::{run_block_flow, BlockResult, FlowConfig};
pub use foldic_fault::{
    format_bytes, parse_bytes, parse_stage_mem, CancelToken, CheckpointStore, Deadline,
    DeadlinePolicy, Disposition, FaultPlan, FaultRecord, FlowError, FlowStage, ResourcePolicy,
    RetryPolicy, RunConfig, RunCtx, RunOutcome,
};
pub use folding::{
    fold_block, fold_candidates, fold_spc_second_level, CandidateRow, FoldAspect, FoldConfig,
    FoldStrategy, FoldedBlock,
};
pub use fullchip::{run_fullchip, DesignStyle, FullChipConfig, FullChipResult};
pub use metrics::{Comparison, DesignMetrics};
pub use render::{render_block_svg, render_chip_svg};

/// Convenience re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::flow::{run_block_flow, BlockResult, FlowConfig};
    pub use crate::folding::{
        fold_block, fold_candidates, fold_spc_second_level, FoldAspect, FoldConfig, FoldStrategy,
        FoldedBlock,
    };
    pub use crate::fullchip::{run_fullchip, DesignStyle, FullChipConfig, FullChipResult};
    pub use crate::metrics::{Comparison, DesignMetrics};
    pub use foldic_floorplan::FloorplanStyle;
    pub use foldic_netlist::{Block, BlockKind, Design};
    pub use foldic_t2::T2Config;
    pub use foldic_tech::{BondingStyle, Technology};
}

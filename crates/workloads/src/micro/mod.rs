//! The seven microbenchmarks of Table 3, each stressing one
//! relaxed-atomic use case from §3. Inputs are scaled from the paper's
//! (256 KB → a few KB of values) to keep simulations fast; contention
//! ratios — the quantity that drives the trends — are preserved by
//! scaling bins and threads together.
//!
//! Every kernel is a [`Grid`] of a few thread-parametric bodies built
//! from the shared [`drfrlx_bridge::templates`], placed in memory by a
//! [`Layout`] and lowered with [`ProgramKernel::grid`], which compiles
//! each body once for all the grid threads that run it.

mod counters;
mod flags;
mod hist;
mod seqlock;

pub use counters::{RefCounter, SplitCounter};
pub use flags::Flags;
pub use hist::{Hist, HistGlobal, HistGlobalNonOrder, HistParams};
pub use seqlock::Seqlocks;

use drfrlx_bridge::{Layout, ProgramKernel};
use drfrlx_core::program::Grid;

/// A micro kernel's grid program, where its locations live, and the
/// lowering the simulator runs. The first two stay beside the third so
/// any grid thread can be instantiated as the flat thread it runs.
#[derive(Debug, Clone)]
pub struct GridKernel {
    /// The grid program.
    pub grid: Grid,
    /// Word addresses of its location families.
    pub layout: Layout,
    /// Its lowering.
    pub kernel: ProgramKernel,
}

impl GridKernel {
    fn new(grid: Grid, layout: Layout, memory_words: usize, scratch_words: usize) -> GridKernel {
        let kernel = ProgramKernel::grid(&grid, &layout, memory_words, scratch_words);
        GridKernel { grid, layout, kernel }
    }
}

//! Seeded input generation.
//!
//! Every workload's inputs are a fixed set of questions — which kernels,
//! on which fabrics, at which II, with which conflict budget — and the
//! seed decides the order they are asked in (and, for `serve`, the
//! skewed mix over the hot set). The set itself never depends on the
//! seed, so work-derived metrics (decided share, routing geomean) repeat
//! exactly across seeds and timings differ only by the host's jitter.
//! Inputs reach the program as DFG and architecture text.

use cgra_arch::families::{grid, paper_configs, FuMix, GridParams, Interconnect};
use cgra_dfg::random::{random_dfg, RandomDfgParams};
use cgra_dfg::Dfg;

/// SplitMix64: a tiny, well-mixed generator for seeded orders.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A fabric, as text.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// The architecture in `cgra_arch::text` format.
    pub text: String,
}

/// A kernel, as text, with its name.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Paper benchmark name, or `rand<ops>:<seed>` for generated ones.
    pub name: String,
    /// The DFG in `cgra_dfg::text` format.
    pub text: String,
}

/// One mapping question: kernel `kernel` on fabric `fabric` at `ii`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Index into the workload's kernels.
    pub kernel: usize,
    /// Index into the workload's fabrics.
    pub fabric: usize,
    /// Initiation interval.
    pub ii: u32,
}

/// The four paper fabrics, in Table 2's column order.
pub fn paper_fabrics() -> Vec<Fabric> {
    paper_configs()
        .into_iter()
        .filter(|c| c.contexts == 1)
        .map(|c| Fabric {
            text: cgra_arch::text::print(&c.arch),
        })
        .collect()
}

/// A paper benchmark kernel by name.
pub fn paper_kernel(name: &str) -> Kernel {
    let entry = cgra_dfg::benchmarks::by_name(name)
        .unwrap_or_else(|| panic!("`{name}` is not a paper benchmark"));
    Kernel {
        name: name.to_owned(),
        text: cgra_dfg::text::print(&(entry.build)()),
    }
}

/// A generated two-input kernel with `ops` internal operations.
pub fn random_kernel(ops: usize, seed: u64) -> Kernel {
    let dfg: Dfg = random_dfg(
        RandomDfgParams {
            inputs: 2,
            internal_ops: ops,
            allow_multiplies: true,
            allow_memory: false,
        },
        seed,
    );
    Kernel {
        name: format!("rand{ops}:{seed}"),
        text: cgra_dfg::text::print(&dfg),
    }
}

/// A small `rows` x `cols` fabric (I/O pads and memory ports included).
pub fn small_fabric(rows: usize, cols: usize, mix: FuMix, ic: Interconnect) -> Fabric {
    let arch = grid(GridParams {
        rows,
        cols,
        ..GridParams::paper(mix, ic)
    });
    Fabric {
        text: cgra_arch::text::print(&arch),
    }
}

/// Table 2's column index (0..8) of a cell on the paper fabrics.
pub fn paper_column(cell: Cell) -> usize {
    cell.fabric + 4 * (cell.ii as usize - 1)
}

/// Orders `cells` column-round by column-round: round `r` holds one cell
/// of every column group, so any whole number of rounds represents each
/// group equally. Within a group and within a round the order is seeded.
pub fn stratified_order(groups: Vec<Vec<Cell>>, rounds: usize, rng: &mut SplitMix64) -> Vec<Cell> {
    let mut groups = groups;
    for g in &mut groups {
        rng.shuffle(g);
    }
    let mut out = Vec::new();
    for r in 0..rounds {
        let mut round: Vec<Cell> = groups.iter().filter_map(|g| g.get(r).copied()).collect();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_repeat_per_seed() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix64::new(7, 1).shuffle(&mut a);
        SplitMix64::new(7, 1).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        SplitMix64::new(8, 1).shuffle(&mut c);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn stratified_rounds_cover_every_group() {
        let groups: Vec<Vec<Cell>> = (0..8)
            .map(|col| {
                (0..6)
                    .map(|k| Cell {
                        kernel: k,
                        fabric: col % 4,
                        ii: 1 + (col / 4) as u32,
                    })
                    .collect()
            })
            .collect();
        let order = stratified_order(groups, 6, &mut SplitMix64::new(3, 0));
        assert_eq!(order.len(), 48);
        for round in order.chunks(8) {
            let mut cols: Vec<usize> = round.iter().map(|&c| paper_column(c)).collect();
            cols.sort_unstable();
            assert_eq!(cols, (0..8).collect::<Vec<_>>());
        }
        let mut distinct = order.clone();
        distinct.sort_by_key(|c| (c.kernel, c.fabric, c.ii));
        distinct.dedup();
        assert_eq!(distinct.len(), 48);
    }
}

//! Device geometry and top-level DRAM configuration.

use crate::energy::EnergyParams;
use crate::timing::TimingParams;

/// Physical geometry of the memory behind one channel.
///
/// The paper's setup is one channel with 1 rank (single-core) or 4 ranks
/// (4-core), 8 banks per rank, 8 Gb chips. Rows are 8 KiB across the rank
/// (1 KiB per x8 device × 8 devices), i.e. 128 64-byte cache lines per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Ranks on the channel.
    pub ranks: usize,
    /// Banks per rank (8 for DDR4 x8 parts as modelled).
    pub banks_per_rank: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
    /// Subarrays per bank (contiguous row blocks sharing local sense
    /// amplifiers). Only SARP-style mechanisms distinguish them: a
    /// subarray-scoped refresh freezes one subarray while accesses to
    /// the bank's other subarrays proceed.
    pub subarrays_per_bank: usize,
    /// Cache lines (columns of one line width) per row.
    pub lines_per_row: usize,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
}

impl Geometry {
    /// Paper configuration: single rank (single-core experiments).
    pub fn ddr4_1rank() -> Self {
        Geometry {
            ranks: 1,
            banks_per_rank: 8,
            rows_per_bank: 1 << 15,
            subarrays_per_bank: 8,
            lines_per_row: 128,
            line_bytes: 64,
        }
    }

    /// Paper configuration: four ranks (4-core experiments).
    pub fn ddr4_4rank() -> Self {
        Geometry {
            ranks: 4,
            ..Self::ddr4_1rank()
        }
    }

    /// Total cache lines addressable on the channel.
    pub fn total_lines(&self) -> usize {
        self.ranks * self.banks_per_rank * self.rows_per_bank * self.lines_per_row
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.total_lines() * self.line_bytes
    }

    /// Rows in each subarray (rows are split into contiguous blocks).
    #[inline]
    pub fn rows_per_subarray(&self) -> usize {
        self.rows_per_bank / self.subarrays_per_bank
    }

    /// Subarray containing `row` (high-order row bits select the
    /// subarray: subarrays are contiguous row blocks).
    // rop-lint: hot
    #[inline]
    pub fn subarray_of_row(&self, row: usize) -> usize {
        row / self.rows_per_subarray()
    }

    /// Validates the geometry (all dimensions non-zero, powers of two where
    /// the address mapping requires it).
    pub fn validate(&self) -> Result<(), String> {
        let pow2 = |n: usize, what: &str| -> Result<(), String> {
            if n == 0 || !n.is_power_of_two() {
                Err(format!("{what} must be a non-zero power of two, got {n}"))
            } else {
                Ok(())
            }
        };
        if self.ranks == 0 {
            return Err("need at least one rank".into());
        }
        pow2(self.banks_per_rank, "banks_per_rank")?;
        pow2(self.rows_per_bank, "rows_per_bank")?;
        pow2(self.subarrays_per_bank, "subarrays_per_bank")?;
        pow2(self.lines_per_row, "lines_per_row")?;
        pow2(self.line_bytes, "line_bytes")?;
        if self.subarrays_per_bank > self.rows_per_bank {
            return Err(format!(
                "subarrays_per_bank ({}) cannot exceed rows_per_bank ({})",
                self.subarrays_per_bank, self.rows_per_bank
            ));
        }
        Ok(())
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::ddr4_1rank()
    }
}

/// Complete configuration for a [`crate::DramDevice`].
#[derive(Debug, Clone, Default)]
pub struct DramConfig {
    /// Geometry of the channel.
    pub geometry: Geometry,
    /// Timing parameters.
    pub timing: TimingParams,
    /// Energy-model parameters.
    pub energy: EnergyParams,
}

impl DramConfig {
    /// Paper baseline: DDR4-1600.
    pub fn baseline(ranks: usize) -> Self {
        let mut geometry = Geometry::ddr4_1rank();
        geometry.ranks = ranks;
        DramConfig {
            geometry,
            timing: TimingParams::ddr4_1600_8gb(),
            energy: EnergyParams::ddr4_8gb(),
        }
    }

    /// Validates geometry and timing together.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        self.timing.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_capacity() {
        let g = Geometry::ddr4_1rank();
        // 1 rank * 8 banks * 32768 rows * 128 lines * 64 B = 2 GiB
        assert_eq!(g.capacity_bytes(), 2 * 1024 * 1024 * 1024);
        let g4 = Geometry::ddr4_4rank();
        assert_eq!(g4.capacity_bytes(), 8 * 1024 * 1024 * 1024usize);
    }

    #[test]
    fn geometry_validation() {
        Geometry::ddr4_1rank().validate().unwrap();
        let bad = Geometry {
            lines_per_row: 100,
            ..Geometry::ddr4_1rank()
        };
        assert!(bad.validate().is_err());
        let no_ranks = Geometry {
            ranks: 0,
            ..Geometry::ddr4_1rank()
        };
        assert!(no_ranks.validate().is_err());
        let odd_subarrays = Geometry {
            subarrays_per_bank: 3,
            ..Geometry::ddr4_1rank()
        };
        assert!(odd_subarrays.validate().is_err());
        let too_many = Geometry {
            subarrays_per_bank: 1 << 16,
            ..Geometry::ddr4_1rank()
        };
        assert!(too_many.validate().is_err());
    }

    #[test]
    fn subarray_mapping_uses_high_row_bits() {
        let g = Geometry::ddr4_1rank();
        assert_eq!(g.rows_per_subarray(), (1 << 15) / 8);
        assert_eq!(g.subarray_of_row(0), 0);
        assert_eq!(g.subarray_of_row(g.rows_per_subarray() - 1), 0);
        assert_eq!(g.subarray_of_row(g.rows_per_subarray()), 1);
        assert_eq!(g.subarray_of_row(g.rows_per_bank - 1), 7);
    }

    #[test]
    fn configs() {
        DramConfig::baseline(1).validate().unwrap();
        DramConfig::baseline(4).validate().unwrap();
    }
}

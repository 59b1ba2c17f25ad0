//! Hardware report: the §5 evaluation artefact for one configuration.
//!
//! Wraps the cost model with the fault-tolerance overhead split the paper
//! reports: total vs nft-subset table bits, register bits with the
//! FT-only share, decision steps, and virtual-channel demand.

use crate::RouterConfiguration;

/// Summary of a configuration's hardware demands.
#[derive(Clone, Debug)]
pub struct HardwareReport {
    /// Configuration name.
    pub name: String,
    /// Number of rule bases.
    pub num_rulebases: usize,
    /// Rule bases also needed by the non-fault-tolerant variant.
    pub num_nft_rulebases: usize,
    /// Total rule-table bits.
    pub table_bits: u64,
    /// Table bits of the nft subset.
    pub nft_table_bits: u64,
    /// Total register bits.
    pub register_bits: u64,
    /// Register bits that exist only for fault tolerance.
    pub ft_only_register_bits: u64,
    /// Number of registers (declarations).
    pub num_registers: usize,
}

impl HardwareReport {
    /// Builds the report from a configuration.
    pub fn of(cfg: &RouterConfiguration) -> Self {
        HardwareReport {
            name: cfg.name.clone(),
            num_rulebases: cfg.cost.rulebases.len(),
            num_nft_rulebases: cfg.cost.rulebases.iter().filter(|r| r.nft).count(),
            table_bits: cfg.cost.total_table_bits(),
            nft_table_bits: cfg.cost.nft_table_bits(),
            register_bits: cfg.cost.total_register_bits(),
            ft_only_register_bits: cfg.cost.ft_only_register_bits(),
            num_registers: cfg.cost.num_registers(),
        }
    }

    /// Fault-tolerance overhead in table bits (absolute).
    pub fn ft_table_overhead(&self) -> u64 {
        self.table_bits - self.nft_table_bits
    }

    /// Fault-tolerance overhead as a factor over the nft subset.
    pub fn ft_table_factor(&self) -> f64 {
        if self.nft_table_bits == 0 {
            f64::INFINITY
        } else {
            self.table_bits as f64 / self.nft_table_bits as f64
        }
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} rule bases ({} nft), table {} bits (nft {}), registers {} bits in {} ({} FT-only)",
            self.name,
            self.num_rulebases,
            self.num_nft_rulebases,
            self.table_bits,
            self.nft_table_bits,
            self.register_bits,
            self.num_registers,
            self.ft_only_register_bits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::configuration;

    #[test]
    fn nafta_report_shows_ft_overhead() {
        let cfg = configuration("nafta").unwrap();
        let r = HardwareReport::of(&cfg);
        assert_eq!(r.num_rulebases, 11);
        assert_eq!(r.num_nft_rulebases, 5);
        assert!(r.ft_table_overhead() > 0, "fault tolerance costs table bits");
        assert!(r.ft_only_register_bits > 0, "fault tolerance costs registers");
        assert!(r.ft_table_factor() > 1.0);
        assert!(r.summary().contains("nafta"));
    }

    #[test]
    fn route_c_report() {
        let cfg = configuration("route_c").unwrap();
        let r = HardwareReport::of(&cfg);
        assert_eq!(r.num_rulebases, 4);
        assert_eq!(r.num_nft_rulebases, 2);
        assert!(r.ft_table_overhead() > 0);
    }
}

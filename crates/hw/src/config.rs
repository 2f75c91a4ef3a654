//! Accelerator configurations: how many instances of each template unit a
//! generated design instantiates.

use crate::templates::{unit_resources, Resources};
use orianna_compiler::UnitClass;

/// Operating frequency of the paper's prototype (Sec. 7.1).
pub const CLOCK_MHZ: f64 = 167.0;

/// A generated accelerator configuration: unit counts per class.
///
/// A plain value: the counts live in a fixed array indexed by
/// [`UnitClass::index`], so building, copying and comparing a candidate
/// never touches the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct HwConfig {
    /// Unit count per class, in [`UnitClass::ALL`] order; every entry is
    /// at least 1.
    counts: [usize; UnitClass::COUNT],
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
}

impl Default for HwConfig {
    fn default() -> Self {
        Self::minimal()
    }
}

impl HwConfig {
    /// The generator's starting point: one unit of each class (Sec. 6.2,
    /// "at first, only one computation unit is instantiated for each
    /// matrix operation block").
    pub fn minimal() -> Self {
        Self::from_counts([1; UnitClass::COUNT])
    }

    /// Builds a configuration from explicit counts (classes not mentioned
    /// get one unit).
    pub fn with_counts(pairs: &[(UnitClass, usize)]) -> Self {
        let mut cfg = Self::minimal();
        for (c, n) in pairs {
            cfg.set_count(*c, *n);
        }
        cfg
    }

    /// A configuration at the default clock from a per-class count array
    /// in [`UnitClass::ALL`] order (every entry at least 1).
    pub(crate) fn from_counts(counts: [usize; UnitClass::COUNT]) -> Self {
        debug_assert!(counts.iter().all(|&n| n >= 1));
        Self {
            counts,
            clock_mhz: CLOCK_MHZ,
        }
    }

    /// Sets the unit count of a class (at least one unit).
    pub(crate) fn set_count(&mut self, class: UnitClass, n: usize) {
        self.counts[class.index()] = n.max(1);
    }

    /// Unit count of a class.
    pub fn count(&self, class: UnitClass) -> usize {
        self.counts[class.index()]
    }

    /// Per-class unit counts, in [`UnitClass::ALL`] order.
    pub(crate) fn counts(&self) -> &[usize; UnitClass::COUNT] {
        &self.counts
    }

    /// Adds one unit of a class, returning the new configuration.
    pub fn plus_one(&self, class: UnitClass) -> HwConfig {
        let mut c = self.clone();
        c.counts[class.index()] += 1;
        c
    }

    /// Total unit count.
    pub fn total_units(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Total resource consumption of the configuration.
    pub fn resources(&self) -> Resources {
        let mut total = Resources::default();
        for (c, n) in self.iter() {
            total = total.plus(&unit_resources(c).times(n as u64));
        }
        total
    }

    /// Iterator over `(class, count)` pairs in [`UnitClass::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (UnitClass, usize)> + '_ {
        UnitClass::ALL.into_iter().zip(self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_has_one_of_each() {
        let c = HwConfig::minimal();
        for class in UnitClass::ALL {
            assert_eq!(c.count(class), 1);
        }
        assert_eq!(c.total_units(), 6);
    }

    #[test]
    fn plus_one_increments() {
        let c = HwConfig::minimal().plus_one(UnitClass::MatMul);
        assert_eq!(c.count(UnitClass::MatMul), 2);
        assert_eq!(c.count(UnitClass::Qr), 1);
    }

    #[test]
    fn resources_accumulate() {
        let base = HwConfig::minimal().resources();
        let more = HwConfig::minimal().plus_one(UnitClass::Qr).resources();
        assert!(more.lut > base.lut);
        assert!(more.dsp > base.dsp);
    }

    #[test]
    fn minimal_fits_zc706() {
        assert!(HwConfig::minimal().resources().fits(&Resources::zc706()));
    }
}

//! The parametric domino cell library.

/// Functional class of a mapped cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// Domino AND: series N-stack, precharged — slow with many inputs.
    DominoAnd,
    /// Domino OR: parallel N-stack, precharged.
    DominoOr,
    /// Domino buffer (single-input pass; footed dynamic stage).
    DominoBuf,
    /// Static inverter at an input boundary.
    InputInv,
    /// Static inverter at an output boundary.
    OutputInv,
    /// D flip-flop.
    Dff,
}

/// The cell library: electrical and timing parameters for every cell class,
/// parameterized by fanin where applicable.
///
/// Delays follow a linear model
/// `d = (base + stack·(k−1)) / size + load_coeff · C_load`; domino AND has a
/// much larger `stack` coefficient than OR (series vs parallel transistors —
/// the root of the paper's `P_i` penalty discussion).
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Maximum cell fanin; wider gates are decomposed into trees.
    pub max_fanin: usize,
    /// Intrinsic delay of a domino AND stage, ps.
    pub and_base_ps: f64,
    /// Extra series-stack delay per additional AND input, ps.
    pub and_stack_ps: f64,
    /// Intrinsic delay of a domino OR stage, ps.
    pub or_base_ps: f64,
    /// Extra delay per additional OR input, ps.
    pub or_stack_ps: f64,
    /// Static inverter delay, ps.
    pub inv_ps: f64,
    /// Flip-flop clock-to-Q delay, ps.
    pub dff_clk_to_q_ps: f64,
    /// Delay added per femtofarad of load, ps/fF.
    pub load_ps_per_ff: f64,
    /// Input pin capacitance of a unit-size cell, fF.
    pub input_cap_ff: f64,
    /// Self (output) capacitance of a unit-size cell, fF.
    pub self_cap_ff: f64,
    /// Clock/precharge capacitance a unit-size domino cell presents every
    /// cycle, fF (this is why domino burns power even when idle).
    pub clock_cap_ff: f64,
    /// Leakage per cell, µA.
    pub leak_ua: f64,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Clock frequency, MHz.
    pub clock_mhz: f64,
}

impl Library {
    /// The default 1999-era library: 1.8 V, 500 MHz, fanin-4 cells.
    pub fn standard() -> Self {
        Library {
            max_fanin: 4,
            and_base_ps: 30.0,
            and_stack_ps: 16.0,
            or_base_ps: 24.0,
            or_stack_ps: 4.0,
            inv_ps: 12.0,
            dff_clk_to_q_ps: 40.0,
            load_ps_per_ff: 1.5,
            input_cap_ff: 2.0,
            self_cap_ff: 4.0,
            clock_cap_ff: 0.8,
            leak_ua: 0.02,
            vdd: 1.8,
            clock_mhz: 500.0,
        }
    }

    /// Intrinsic (unloaded, unit-size) delay of a cell with `k` inputs, ps.
    pub fn intrinsic_delay_ps(&self, class: CellClass, k: usize) -> f64 {
        let k = k.max(1) as f64;
        match class {
            CellClass::DominoAnd => self.and_base_ps + self.and_stack_ps * (k - 1.0),
            CellClass::DominoOr => self.or_base_ps + self.or_stack_ps * (k - 1.0),
            CellClass::DominoBuf => self.or_base_ps,
            CellClass::InputInv | CellClass::OutputInv => self.inv_ps,
            CellClass::Dff => self.dff_clk_to_q_ps,
        }
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_slower_than_or_and_grows_faster() {
        let lib = Library::standard();
        for k in 2..=4 {
            assert!(
                lib.intrinsic_delay_ps(CellClass::DominoAnd, k)
                    > lib.intrinsic_delay_ps(CellClass::DominoOr, k),
                "k = {k}"
            );
        }
        let and_growth = lib.intrinsic_delay_ps(CellClass::DominoAnd, 4)
            - lib.intrinsic_delay_ps(CellClass::DominoAnd, 2);
        let or_growth = lib.intrinsic_delay_ps(CellClass::DominoOr, 4)
            - lib.intrinsic_delay_ps(CellClass::DominoOr, 2);
        assert!(and_growth > or_growth);
    }
}

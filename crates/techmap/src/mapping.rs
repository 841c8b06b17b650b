//! Lowering a [`DominoNetwork`] onto library cells.
//!
//! Gates wider than the library's `max_fanin` are decomposed into balanced
//! same-kind trees (domino AND/OR are associative, and a tree of footed
//! domino stages cascades correctly). Boundary inverters become `InputInv` /
//! `OutputInv` cells; latch data outputs become D flip-flops closing the
//! sequential loop.

use domino_phase::{DominoGateKind, DominoNetwork, DominoRef};

use crate::cells::{CellClass, Library};

/// Reference to a value inside a [`MappedNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappedRef {
    /// Output of cell `i`.
    Cell(usize),
    /// Source rail `i` (primary inputs then flip-flop outputs).
    Source(usize),
    /// Constant rail.
    Const(bool),
}

/// A mapped cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedCell {
    /// Library class.
    pub class: CellClass,
    /// Fanin rails.
    pub fanins: Vec<MappedRef>,
    /// Drive strength multiplier (changed by sizing; 1.0 = unit cell).
    pub size: f64,
}

/// A mapped flip-flop: drives source rail `source_index` from `data` at
/// every clock edge.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedDff {
    /// The source rail this flop drives.
    pub source_index: usize,
    /// Data input.
    pub data: MappedRef,
    /// Reset state.
    pub init: bool,
    /// Drive strength multiplier.
    pub size: f64,
}

/// A technology-mapped domino netlist (combinational cells in topological
/// order plus flip-flops closing sequential loops).
#[derive(Debug, Clone, PartialEq)]
pub struct MappedNetlist {
    cells: Vec<MappedCell>,
    dffs: Vec<MappedDff>,
    outputs: Vec<(String, MappedRef)>,
    source_names: Vec<String>,
    pi_count: usize,
}

impl MappedNetlist {
    /// The combinational cells in topological order.
    pub fn cells(&self) -> &[MappedCell] {
        &self.cells
    }

    /// Mutable access for sizing.
    pub(crate) fn cells_mut(&mut self) -> &mut [MappedCell] {
        &mut self.cells
    }

    /// The flip-flops.
    pub fn dffs(&self) -> &[MappedDff] {
        &self.dffs
    }

    /// Primary outputs `(name, rail)`, in declaration order.
    pub fn outputs(&self) -> &[(String, MappedRef)] {
        &self.outputs
    }

    /// Source rail names (primary inputs then flip-flop outputs).
    pub fn source_names(&self) -> &[String] {
        &self.source_names
    }

    /// Number of source rails.
    pub fn source_count(&self) -> usize {
        self.source_names.len()
    }

    /// Number of primary inputs (sources before this index are PIs, after
    /// are flop outputs).
    pub fn pi_count(&self) -> usize {
        self.pi_count
    }

    /// Plain cell instance count (combinational cells + flip-flops),
    /// ignoring sizing.
    pub fn cell_count(&self) -> usize {
        self.cells.len() + self.dffs.len()
    }

    /// Standard-cell count after sizing: an upsized cell is implemented as
    /// `⌈size⌉` parallel fingers — this is the Table 1/2 "Size" column.
    pub fn effective_cell_count(&self) -> usize {
        let c: f64 = self.cells.iter().map(|c| c.size.ceil()).sum();
        let d: f64 = self.dffs.iter().map(|d| d.size.ceil()).sum();
        (c + d) as usize
    }

    /// Resolves a rail's logical value given source values and already
    /// computed cell values.
    pub fn ref_value(&self, r: MappedRef, sources: &[bool], cell_values: &[bool]) -> bool {
        match r {
            MappedRef::Cell(i) => cell_values[i],
            MappedRef::Source(i) => sources[i],
            MappedRef::Const(v) => v,
        }
    }

    /// Evaluates every cell for one cycle's source values (no state
    /// update); returns per-cell logical outputs.
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not match [`MappedNetlist::source_count`].
    pub fn eval_cells(&self, sources: &[bool]) -> Vec<bool> {
        assert_eq!(sources.len(), self.source_count(), "source value count");
        let mut values = vec![false; self.cells.len()];
        for (i, cell) in self.cells.iter().enumerate() {
            let v = match cell.class {
                CellClass::DominoAnd => cell
                    .fanins
                    .iter()
                    .all(|&f| self.ref_value(f, sources, &values)),
                CellClass::DominoOr => cell
                    .fanins
                    .iter()
                    .any(|&f| self.ref_value(f, sources, &values)),
                CellClass::DominoBuf => self.ref_value(cell.fanins[0], sources, &values),
                CellClass::InputInv | CellClass::OutputInv => {
                    !self.ref_value(cell.fanins[0], sources, &values)
                }
                CellClass::Dff => unreachable!("flip-flops live in dffs, not cells"),
            };
            values[i] = v;
        }
        values
    }

    /// Evaluates the primary outputs for one cycle.
    pub fn eval_outputs(&self, sources: &[bool]) -> Vec<bool> {
        let values = self.eval_cells(sources);
        self.outputs
            .iter()
            .map(|(_, r)| self.ref_value(*r, sources, &values))
            .collect()
    }

    /// Load capacitance seen by every cell output (sum of consumer input
    /// pin caps plus the cell's own output cap), in fF.
    pub fn load_caps_ff(&self, lib: &Library) -> Vec<f64> {
        let mut caps: Vec<f64> = self
            .cells
            .iter()
            .map(|c| lib.self_cap_ff * c.size)
            .collect();
        let mut add_load = |r: MappedRef, pin_cap: f64| {
            if let MappedRef::Cell(i) = r {
                caps[i] += pin_cap;
            }
        };
        for cell in &self.cells {
            for &f in &cell.fanins {
                add_load(f, lib.input_cap_ff * cell.size);
            }
        }
        for dff in &self.dffs {
            add_load(dff.data, lib.input_cap_ff * dff.size);
        }
        for (_, r) in &self.outputs {
            add_load(*r, lib.input_cap_ff); // external load ≈ one unit pin
        }
        caps
    }
}

/// Maps a domino block onto library cells.
///
/// Boundary inverter cells are emitted first (input side), then the domino
/// gates in topological order (decomposed to `lib.max_fanin`), then output
/// inverters; latch data outputs become flip-flops.
pub fn map(domino: &DominoNetwork, lib: &Library) -> MappedNetlist {
    let sources = domino.sources();
    let source_index = |node: domino_netlist::NodeId| -> usize {
        sources
            .iter()
            .position(|&s| s == node)
            .expect("domino source missing from source list")
    };
    let mut cells: Vec<MappedCell> = Vec::new();

    // Input-boundary inverters.
    let mut inv_cell: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for &src in domino.input_inverters() {
        let si = source_index(src);
        let idx = cells.len();
        cells.push(MappedCell {
            class: CellClass::InputInv,
            fanins: vec![MappedRef::Source(si)],
            size: 1.0,
        });
        inv_cell.insert(si, idx);
    }

    // Domino gates, decomposed into ≤ max_fanin trees.
    let mut gate_root: Vec<usize> = Vec::with_capacity(domino.gates().len());
    for gate in domino.gates() {
        let class = match gate.kind {
            DominoGateKind::And => CellClass::DominoAnd,
            DominoGateKind::Or => CellClass::DominoOr,
        };
        let mut level: Vec<MappedRef> = gate
            .fanins
            .iter()
            .map(|&f| lower_ref(f, &gate_root, &inv_cell, &source_index))
            .collect();
        if level.len() == 1 {
            // Single-fanin gate: a domino buffer stage.
            let idx = cells.len();
            cells.push(MappedCell {
                class: CellClass::DominoBuf,
                fanins: level,
                size: 1.0,
            });
            gate_root.push(idx);
            continue;
        }
        while level.len() > lib.max_fanin {
            let mut next: Vec<MappedRef> = Vec::with_capacity(level.len().div_ceil(lib.max_fanin));
            for chunk in level.chunks(lib.max_fanin) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                    continue;
                }
                let idx = cells.len();
                cells.push(MappedCell {
                    class,
                    fanins: chunk.to_vec(),
                    size: 1.0,
                });
                next.push(MappedRef::Cell(idx));
            }
            level = next;
        }
        let idx = cells.len();
        cells.push(MappedCell {
            class,
            fanins: level,
            size: 1.0,
        });
        gate_root.push(idx);
    }

    // Outputs: inverters for negative phases, then PO/DFF wiring.
    let mut outputs: Vec<(String, MappedRef)> = Vec::new();
    let mut dffs: Vec<MappedDff> = Vec::new();
    let pi_count = sources.len() - domino.latch_inits().len();
    let mut latch_idx = 0usize;
    for out in domino.outputs() {
        let mut r = lower_ref(out.driver, &gate_root, &inv_cell, &source_index);
        if out.phase.is_negative() {
            let idx = cells.len();
            cells.push(MappedCell {
                class: CellClass::OutputInv,
                fanins: vec![r],
                size: 1.0,
            });
            r = MappedRef::Cell(idx);
        }
        if out.is_latch_data {
            dffs.push(MappedDff {
                source_index: pi_count + latch_idx,
                data: r,
                init: domino.latch_inits()[latch_idx],
                size: 1.0,
            });
            latch_idx += 1;
        } else {
            outputs.push((out.name.clone(), r));
        }
    }

    MappedNetlist {
        cells,
        dffs,
        outputs,
        source_names: sources.iter().map(|s| s.to_string()).collect(),
        pi_count,
    }
}

fn lower_ref(
    r: DominoRef,
    gate_root: &[usize],
    inv_cell: &std::collections::HashMap<usize, usize>,
    source_index: &impl Fn(domino_netlist::NodeId) -> usize,
) -> MappedRef {
    match r {
        DominoRef::Gate(g) => MappedRef::Cell(gate_root[g]),
        DominoRef::Source { node, complemented } => {
            let si = source_index(node);
            if complemented {
                MappedRef::Cell(inv_cell[&si])
            } else {
                MappedRef::Source(si)
            }
        }
        DominoRef::Constant(v) => MappedRef::Const(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_netlist::Network;
    use domino_phase::{DominoSynthesizer, PhaseAssignment};

    fn map_network(net: &Network, bits: u64) -> (MappedNetlist, usize) {
        let synth = DominoSynthesizer::new(net).unwrap();
        let n = synth.view_outputs().len();
        let domino = synth
            .synthesize(&PhaseAssignment::from_bits(n, bits))
            .unwrap();
        (map(&domino, &Library::standard()), n)
    }

    #[test]
    fn wide_gate_decomposed() {
        let mut net = Network::new("wide");
        let inputs: Vec<_> = (0..10)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        let g = net.add_and(inputs).unwrap();
        net.add_output("f", g).unwrap();
        let (mapped, _) = map_network(&net, 0);
        assert!(mapped.cells().iter().all(|c| c.fanins.len() <= 4));
        assert!(mapped.cells().len() >= 3); // 10 inputs need ≥ 3 AND4s
                                            // Function preserved.
        let all_true = vec![true; 10];
        assert_eq!(mapped.eval_outputs(&all_true), vec![true]);
        let mut one_false = all_true.clone();
        one_false[7] = false;
        assert_eq!(mapped.eval_outputs(&one_false), vec![false]);
    }

    #[test]
    fn mapping_preserves_function_for_all_phases() {
        // f = !(a·b) + c, g = a·b
        let mut net = Network::new("m");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let ab = net.add_and([a, b]).unwrap();
        let nab = net.add_not(ab).unwrap();
        let f = net.add_or([nab, c]).unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", ab).unwrap();
        for bits in 0..4u64 {
            let (mapped, _) = map_network(&net, bits);
            for v in 0..8u32 {
                let vals: Vec<bool> = (0..3).map(|i| v & (1 << i) != 0).collect();
                let want = net.eval_comb(&vals).unwrap();
                assert_eq!(mapped.eval_outputs(&vals), want, "bits {bits} v {v}");
            }
        }
    }

    #[test]
    fn sequential_mapping_builds_dffs() {
        let mut net = Network::new("seq");
        let a = net.add_input("a").unwrap();
        let q = net.add_latch(true);
        let d = net.add_or([a, q]).unwrap();
        net.set_latch_data(q, d).unwrap();
        net.add_output("o", d).unwrap();
        let (mapped, _) = map_network(&net, 0);
        assert_eq!(mapped.dffs().len(), 1);
        assert_eq!(mapped.dffs()[0].source_index, 1);
        assert!(mapped.dffs()[0].init);
        assert_eq!(mapped.pi_count(), 1);
        assert_eq!(mapped.cell_count(), mapped.cells().len() + 1);
    }

    #[test]
    fn effective_cell_count_tracks_sizing() {
        let mut net = Network::new("m");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net.add_and([a, b]).unwrap();
        net.add_output("f", g).unwrap();
        let (mut mapped, _) = map_network(&net, 0);
        let before = mapped.effective_cell_count();
        mapped.cells_mut()[0].size = 2.5;
        assert_eq!(mapped.effective_cell_count(), before + 2);
    }

    #[test]
    fn load_caps_count_consumers() {
        let mut net = Network::new("m");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g1 = net.add_and([a, b]).unwrap();
        let g2 = net.add_or([g1, a]).unwrap();
        let g3 = net.add_or([g1, b]).unwrap();
        net.add_output("x", g2).unwrap();
        net.add_output("y", g3).unwrap();
        let (mapped, _) = map_network(&net, 0);
        let lib = Library::standard();
        let caps = mapped.load_caps_ff(&lib);
        // g1 drives two consumers: cap > self cap + one pin.
        let g1_cell = 0; // first gate emitted (no inverters in this netlist)
        assert!(caps[g1_cell] > lib.self_cap_ff + lib.input_cap_ff);
    }
}

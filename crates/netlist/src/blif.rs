//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! The parser supports the subset used by the MCNC benchmark suite that the
//! paper evaluates on: `.model`, `.inputs`, `.outputs`, `.names` with
//! single-output PLA covers (including don't-cares `-` and both output
//! phases), `.latch`, and `.end`. `.names` covers are expanded into
//! AND/OR/NOT trees, which is exactly the technology-independent form the
//! phase-assignment flow consumes.
//!
//! The writer emits one `.names` block per gate, so `parse_blif(&write_blif(n))`
//! round-trips functionally.
//!
//! Parsing is *streaming*: [`parse_blif_reader`] consumes any
//! [`BufRead`](std::io::BufRead) one line at a time through one reused
//! line buffer, so a giant circuit file never has to exist in memory as
//! text — only the parsed blocks (which the network needs anyway) are
//! retained, and reading stops at `.end`. [`parse_blif`] and
//! [`parse_blif_path`] are thin fronts over the same state machine, so
//! the three entry points cannot diverge.
//!
//! Ingestion is *interned*: each signal name is hashed once, when first
//! seen, into a dense `u32` name id. Ports, latches and `.names` blocks
//! hold name ids and cover rows sit back to back in one byte pool, so the
//! build — driver lookup, topological order, cycle and undefined-signal
//! checks, the per-block inverter cache — indexes `Vec`s and never hashes
//! a name again.
//!
//! Every signal has one driver: a `.names` block may not define an input
//! or latch output, nor a signal another block defines. Every error of
//! [`parse_blif`] is a [`NetlistError::Parse`] naming a line of the input.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::error::NetlistError;
use crate::network::{Network, NodeId};
use crate::node::NodeKind;

/// Parses a BLIF model into a [`Network`].
///
/// Only the first `.model` in the text is read. Signals referenced before
/// definition are resolved after the whole model is read (BLIF permits
/// forward references).
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with the number of the offending line
/// for malformed input, duplicate names and undefined signals alike.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), domino_netlist::NetlistError> {
/// let net = domino_netlist::parse_blif(
///     ".model and2\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n",
/// )?;
/// assert_eq!(net.eval_comb(&[true, true])?, vec![true]);
/// # Ok(())
/// # }
/// ```
pub fn parse_blif(text: &str) -> Result<Network, NetlistError> {
    let mut stream = BlifStream::new();
    for (lineno, raw) in text.lines().enumerate() {
        stream.raw_line(lineno + 1, raw)?;
        if stream.seen_end {
            break;
        }
    }
    stream.finish()
}

/// Parses a BLIF model from any buffered reader, streaming: one logical
/// line in memory at a time, through one reused buffer. This is the
/// bounded-memory ingestion path for giant circuit files — the text is
/// never materialized as a whole, and reading stops at `.end`.
///
/// # Errors
///
/// [`NetlistError::Io`] when the reader fails, plus everything
/// [`parse_blif`] reports.
pub fn parse_blif_reader<R: std::io::BufRead>(mut reader: R) -> Result<Network, NetlistError> {
    let mut stream = BlifStream::new();
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| NetlistError::Io(format!("reading line {}: {e}", lineno + 1)))?;
        if n == 0 {
            break;
        }
        lineno += 1;
        let raw = buf.strip_suffix('\n').unwrap_or(&buf);
        let raw = raw.strip_suffix('\r').unwrap_or(raw);
        stream.raw_line(lineno, raw)?;
        if stream.seen_end {
            break;
        }
    }
    stream.finish()
}

/// Opens `path` and parses it with [`parse_blif_reader`] — the streaming
/// file front used by the engine's `BlifPath` job source.
///
/// # Errors
///
/// [`NetlistError::Io`] when the file cannot be opened or read, plus
/// everything [`parse_blif`] reports.
pub fn parse_blif_path(path: impl AsRef<std::path::Path>) -> Result<Network, NetlistError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)
        .map_err(|e| NetlistError::Io(format!("opening {}: {e}", path.display())))?;
    parse_blif_reader(std::io::BufReader::new(file))
}

/// Marks "none" in the parser's dense `u32` maps.
const NONE: u32 = u32::MAX;

/// The incremental parser state behind every `parse_blif*` front: feed it
/// raw lines, then [`BlifStream::finish`] builds the network. Memory is
/// bounded by the parsed model, never the input text — the only raw text
/// held between calls is one pending continuation line.
///
/// Every signal name is interned once, when first seen, into a dense `u32`
/// name id; ports, latches and `.names` blocks keep name ids, and cover
/// rows live back to back in one byte pool. So each token costs one hash
/// probe and no allocation, and [`BlifStream::finish`] resolves drivers,
/// orders blocks and checks for cycles and undefined signals with plain
/// `Vec` indexing.
struct BlifStream {
    model_name: String,
    /// Signal text by name id.
    names: Vec<String>,
    ids: HashMap<String, u32>,
    /// `(name, line)` of each `.inputs` entry.
    inputs: Vec<(u32, usize)>,
    /// `(name, line)` of each `.outputs` entry.
    outputs: Vec<(u32, usize)>,
    latches: Vec<LatchDecl>,
    blocks: Vec<NamesBlock>,
    /// The fanin names of every block, back to back.
    fanin_pool: Vec<u32>,
    /// The input patterns of every cover row, back to back: one byte per
    /// fanin of the row's block.
    cover_pool: Vec<u8>,
    /// The last block still takes cover rows.
    open_block: bool,
    /// An unfinished `\`-continued logical line: (start line, text so far).
    pending: Option<(usize, String)>,
    seen_end: bool,
}

struct LatchDecl {
    data: u32,
    q: u32,
    init: bool,
    line: usize,
}

struct NamesBlock {
    /// `fanin_pool[fanins.0..fanins.1]`.
    fanins: (usize, usize),
    output: u32,
    /// Start of the block's rows in `cover_pool`.
    cover_start: usize,
    rows: usize,
    /// Output value of the first row (`b'1'` unless a row says `0`).
    phase: u8,
    /// A later row's output value differs from the first's.
    mixed: bool,
    /// Some row of a constant (fanin-free) block reads `1`.
    any_one: bool,
    line: usize,
}

impl NamesBlock {
    fn width(&self) -> usize {
        self.fanins.1 - self.fanins.0
    }
}

impl BlifStream {
    fn new() -> BlifStream {
        BlifStream {
            model_name: String::from("blif"),
            names: Vec::new(),
            ids: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            latches: Vec::new(),
            blocks: Vec::new(),
            fanin_pool: Vec::new(),
            cover_pool: Vec::new(),
            open_block: false,
            pending: None,
            seen_end: false,
        }
    }

    /// The name id of `name`, interning it on first sight.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("BLIF signal count exceeds u32::MAX");
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Consumes one raw input line: strips the comment, joins `\`
    /// continuations, and dispatches completed logical lines.
    fn raw_line(&mut self, lineno: usize, raw: &str) -> Result<(), NetlistError> {
        if self.seen_end {
            return Ok(());
        }
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let line = line.trim_end();
        let (cont, body) = match line.strip_suffix('\\') {
            Some(b) => (true, b),
            None => (false, line),
        };
        match self.pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(body);
                if cont {
                    self.pending = Some((start, acc));
                } else {
                    self.logical_line(start, &acc)?;
                }
            }
            None => {
                if cont {
                    self.pending = Some((lineno, body.to_string()));
                } else if !body.trim().is_empty() {
                    self.logical_line(lineno, body)?;
                }
            }
        }
        Ok(())
    }

    /// Dispatches one complete logical line (continuations already joined).
    fn logical_line(&mut self, lineno: usize, line: &str) -> Result<(), NetlistError> {
        let parse_err = |msg: String| NetlistError::Parse { line: lineno, msg };
        let mut toks = line.split_whitespace();
        let first = match toks.next() {
            Some(t) => t,
            None => return Ok(()),
        };
        if first.starts_with('.') {
            self.open_block = false;
            match first {
                ".model" => {
                    if let Some(name) = toks.next() {
                        self.model_name = name.to_string();
                    }
                }
                ".inputs" => {
                    for tok in toks {
                        let id = self.intern(tok);
                        self.inputs.push((id, lineno));
                    }
                }
                ".outputs" => {
                    for tok in toks {
                        let id = self.intern(tok);
                        self.outputs.push((id, lineno));
                    }
                }
                ".names" => {
                    let start = self.fanin_pool.len();
                    for tok in toks {
                        let id = self.intern(tok);
                        self.fanin_pool.push(id);
                    }
                    if self.fanin_pool.len() == start {
                        return Err(parse_err(
                            ".names requires at least an output signal".into(),
                        ));
                    }
                    let output = self.fanin_pool.pop().expect("the block has a signal");
                    self.blocks.push(NamesBlock {
                        fanins: (start, self.fanin_pool.len()),
                        output,
                        cover_start: self.cover_pool.len(),
                        rows: 0,
                        phase: b'1',
                        mixed: false,
                        any_one: false,
                        line: lineno,
                    });
                    self.open_block = true;
                }
                ".latch" => {
                    let (Some(d), Some(q)) = (toks.next(), toks.next()) else {
                        return Err(parse_err(".latch requires input and output signals".into()));
                    };
                    // Remaining tokens: optional [type] [control] [init];
                    // only an init of `1` sets the flop.
                    let init = toks.last() == Some("1");
                    let data = self.intern(d);
                    let q = self.intern(q);
                    self.latches.push(LatchDecl {
                        data,
                        q,
                        init,
                        line: lineno,
                    });
                }
                ".end" => self.seen_end = true,
                ".exdc"
                | ".wire_load_slope"
                | ".default_input_arrival"
                | ".default_output_required"
                | ".clock" => {
                    // Ignored extensions.
                }
                other => {
                    return Err(parse_err(format!("unsupported blif construct `{other}`")));
                }
            }
            return Ok(());
        }
        // Cover row of the current .names block.
        let block = match self.blocks.last_mut() {
            Some(block) if self.open_block => block,
            _ => return Err(parse_err("cover row outside .names block".into())),
        };
        if block.width() == 0 {
            // Constant: single token row "1" or "0".
            match first {
                "1" => block.any_one = true,
                "0" => {}
                other => return Err(parse_err(format!("bad constant cover `{other}`"))),
            }
            return Ok(());
        }
        let out = toks
            .next()
            .ok_or_else(|| parse_err("cover row missing output value".into()))?;
        let value = match out {
            "1" => b'1',
            "0" => b'0',
            other => return Err(parse_err(format!("bad cover output `{other}`"))),
        };
        if first.len() != block.width() {
            return Err(parse_err(format!(
                "cover row width {} does not match {} inputs",
                first.len(),
                block.width()
            )));
        }
        // BLIF: all rows of a block share the first row's output value.
        if block.rows == 0 {
            block.phase = value;
        } else if value != block.phase {
            block.mixed = true;
        }
        block.rows += 1;
        self.cover_pool.extend_from_slice(first.as_bytes());
        Ok(())
    }

    /// Ends the stream and builds the [`Network`].
    fn finish(self) -> Result<Network, NetlistError> {
        if let Some((line, _)) = self.pending {
            return Err(NetlistError::Parse {
                line,
                msg: "dangling line continuation".into(),
            });
        }
        let at = |line: usize| {
            move |e: NetlistError| NetlistError::Parse {
                line,
                msg: e.to_string(),
            }
        };
        let mut net = Network::new(self.model_name.as_str());
        // The node each name denotes: sources first, then each block's
        // output once the block is built.
        let mut node_of: Vec<u32> = vec![NONE; self.names.len()];
        for &(name, line) in &self.inputs {
            let id = net.add_input(self.name(name)).map_err(at(line))?;
            node_of[name as usize] = id.index() as u32;
        }
        for latch in &self.latches {
            if node_of[latch.q as usize] != NONE {
                return Err(at(latch.line)(NetlistError::DuplicateName(
                    self.name(latch.q).to_string(),
                )));
            }
            let id = net.add_latch(latch.init);
            net.set_node_name(id, self.name(latch.q))?;
            node_of[latch.q as usize] = id.index() as u32;
        }

        // Which block drives each name; a signal has one driver.
        let mut block_of: Vec<u32> = vec![NONE; self.names.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            let output = b.output as usize;
            let other = if block_of[output] != NONE {
                "two .names blocks"
            } else if node_of[output] != NONE {
                "a .names block and an input or latch"
            } else {
                block_of[output] = i as u32;
                continue;
            };
            return Err(NetlistError::Parse {
                line: b.line,
                msg: format!("signal `{}` defined by {other}", self.name(b.output)),
            });
        }

        // Topologically order the .names blocks (BLIF allows any order):
        // iterative DFS with cycle detection (giant circuits would blow
        // the call stack with the recursive form).
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.blocks.len()];
        let mut order: Vec<usize> = Vec::with_capacity(self.blocks.len());
        // (block index, next fanin position to examine)
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.blocks.len() {
            if marks[root] != Mark::White {
                continue;
            }
            stack.push((root, self.blocks[root].fanins.0));
            marks[root] = Mark::Grey;
            while let Some(&(i, pos)) = stack.last() {
                if pos == self.blocks[i].fanins.1 {
                    marks[i] = Mark::Black;
                    order.push(i);
                    stack.pop();
                    continue;
                }
                stack.last_mut().expect("stack is non-empty").1 += 1;
                let input = self.fanin_pool[pos];
                if node_of[input as usize] != NONE {
                    continue;
                }
                let j = block_of[input as usize];
                if j == NONE {
                    return Err(NetlistError::Parse {
                        line: self.blocks[i].line,
                        msg: format!("undefined signal `{}`", self.name(input)),
                    });
                }
                let j = j as usize;
                match marks[j] {
                    Mark::Black => {}
                    Mark::Grey => {
                        return Err(NetlistError::Parse {
                            line: self.blocks[j].line,
                            msg: format!(
                                "combinational cycle through `{}`",
                                self.name(self.blocks[j].output)
                            ),
                        })
                    }
                    Mark::White => {
                        marks[j] = Mark::Grey;
                        stack.push((j, self.blocks[j].fanins.0));
                    }
                }
            }
        }

        let mut bufs = CoverBuffers::default();
        for i in order {
            let block = &self.blocks[i];
            let id = self.build_cover(&mut net, block, i as u32, &node_of, &mut bufs)?;
            node_of[block.output as usize] = id.index() as u32;
        }

        // Connect latches.
        for latch in &self.latches {
            let data = node_of[latch.data as usize];
            if data == NONE {
                return Err(NetlistError::Parse {
                    line: latch.line,
                    msg: format!("latch data signal `{}` is undefined", self.name(latch.data)),
                });
            }
            let q = NodeId::from_index(node_of[latch.q as usize] as usize);
            net.set_latch_data(q, NodeId::from_index(data as usize))?;
        }

        for &(name, line) in &self.outputs {
            let driver = node_of[name as usize];
            if driver == NONE {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("output signal `{}` is undefined", self.name(name)),
                });
            }
            net.add_output(self.name(name), NodeId::from_index(driver as usize))
                .map_err(at(line))?;
        }
        net.validate()?;
        Ok(net)
    }

    /// Expands block `stamp`'s PLA cover into AND/OR/NOT nodes.
    fn build_cover(
        &self,
        net: &mut Network,
        block: &NamesBlock,
        stamp: u32,
        node_of: &[u32],
        bufs: &mut CoverBuffers,
    ) -> Result<NodeId, NetlistError> {
        if block.width() == 0 {
            // Constant block: on-set non-empty ⇒ 1, empty ⇒ 0.
            return Ok(net.add_const(block.any_one));
        }
        if block.mixed {
            return Err(NetlistError::Parse {
                line: block.line,
                msg: "mixed output phases in one .names cover".into(),
            });
        }
        let fanins = &self.fanin_pool[block.fanins.0..block.fanins.1];
        let width = fanins.len();
        // Negated-literal cache, so repeated literals share an inverter:
        // per node, the block that last negated it and the inverter.
        bufs.inverter
            .resize(net.len(), (NONE, NodeId::from_index(0)));
        bufs.cubes.clear();
        for row in 0..block.rows {
            let start = block.cover_start + row * width;
            let pattern = &self.cover_pool[start..start + width];
            bufs.literals.clear();
            for (&ch, &name) in pattern.iter().zip(fanins) {
                let src = NodeId::from_index(node_of[name as usize] as usize);
                match ch {
                    b'1' => bufs.literals.push(src),
                    b'0' => {
                        let (owner, inv) = bufs.inverter[src.index()];
                        let n = if owner == stamp {
                            inv
                        } else {
                            let n = net.add_not(src)?;
                            bufs.inverter[src.index()] = (stamp, n);
                            n
                        };
                        bufs.literals.push(n);
                    }
                    b'-' => {}
                    _ => {
                        // Report the offending character, not the byte.
                        let text = std::str::from_utf8(pattern).unwrap_or_default();
                        let bad = text
                            .chars()
                            .find(|c| !matches!(c, '0' | '1' | '-'))
                            .unwrap_or(char::REPLACEMENT_CHARACTER);
                        return Err(NetlistError::Parse {
                            line: block.line,
                            msg: format!("bad cover character `{bad}`"),
                        });
                    }
                }
            }
            let cube = match bufs.literals.len() {
                0 => net.add_const(true),
                1 => bufs.literals[0],
                _ => net.add_and(bufs.literals.iter().copied())?,
            };
            bufs.cubes.push(cube);
        }
        let sum = match bufs.cubes.len() {
            0 => net.add_const(false),
            1 => bufs.cubes[0],
            _ => net.add_or(bufs.cubes.iter().copied())?,
        };
        let result = if block.phase == b'1' {
            sum
        } else {
            net.add_not(sum)?
        };
        // A buffer of an input or latch output maps its signal to that
        // source, which keeps its own name: the interface stays as
        // written. Any other node takes the block's name.
        if !matches!(
            net.node(result).kind,
            NodeKind::Input | NodeKind::Latch { .. }
        ) {
            net.set_node_name(result, self.name(block.output))?;
        }
        Ok(result)
    }
}

/// Buffers [`BlifStream::build_cover`] reuses from block to block.
#[derive(Default)]
struct CoverBuffers {
    /// Per network node: `(block stamp, its inverter)`.
    inverter: Vec<(u32, NodeId)>,
    literals: Vec<NodeId>,
    cubes: Vec<NodeId>,
}

/// Serializes a network to BLIF text.
///
/// Every gate becomes one `.names` block (AND → single cube, OR → one-hot
/// cubes, NOT → `0 1`); latches become `.latch` lines. Node names are used
/// when present, otherwise ids are used.
pub fn write_blif(net: &Network) -> String {
    let mut s = String::new();
    let signal = |id: NodeId| -> String {
        match &net.node(id).name {
            Some(n) => n.clone(),
            None => id.to_string(),
        }
    };
    writeln!(s, ".model {}", net.name()).unwrap();
    if !net.inputs().is_empty() {
        write!(s, ".inputs").unwrap();
        for &i in net.inputs() {
            write!(s, " {}", signal(i)).unwrap();
        }
        writeln!(s).unwrap();
    }
    if !net.outputs().is_empty() {
        write!(s, ".outputs").unwrap();
        for o in net.outputs() {
            write!(s, " {}", o.name).unwrap();
        }
        writeln!(s).unwrap();
    }
    for &l in net.latches() {
        let init = match net.node(l).kind {
            NodeKind::Latch { init } => init as u8,
            _ => unreachable!(),
        };
        let d = net.node(l).fanins.first().copied();
        let dsig = d.map(signal).unwrap_or_else(|| "<unconnected>".into());
        writeln!(s, ".latch {dsig} {} {init}", signal(l)).unwrap();
    }
    for id in net.node_ids() {
        let node = net.node(id);
        match node.kind {
            NodeKind::And => {
                write!(s, ".names").unwrap();
                for &f in &node.fanins {
                    write!(s, " {}", signal(f)).unwrap();
                }
                writeln!(s, " {}", signal(id)).unwrap();
                writeln!(s, "{} 1", "1".repeat(node.fanins.len())).unwrap();
            }
            NodeKind::Or => {
                write!(s, ".names").unwrap();
                for &f in &node.fanins {
                    write!(s, " {}", signal(f)).unwrap();
                }
                writeln!(s, " {}", signal(id)).unwrap();
                for i in 0..node.fanins.len() {
                    let mut row = vec!['-'; node.fanins.len()];
                    row[i] = '1';
                    let row: String = row.into_iter().collect();
                    writeln!(s, "{row} 1").unwrap();
                }
            }
            NodeKind::Not => {
                writeln!(s, ".names {} {}", signal(node.fanins[0]), signal(id)).unwrap();
                writeln!(s, "0 1").unwrap();
            }
            NodeKind::Constant(v) => {
                writeln!(s, ".names {}", signal(id)).unwrap();
                if v {
                    writeln!(s, "1").unwrap();
                }
            }
            NodeKind::Input | NodeKind::Latch { .. } => {}
        }
    }
    // Alias outputs whose name differs from their driver's signal name.
    for o in net.outputs() {
        let dsig = signal(o.driver);
        if dsig != o.name {
            writeln!(s, ".names {dsig} {}", o.name).unwrap();
            writeln!(s, "1 1").unwrap();
        }
    }
    writeln!(s, ".end").unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_and() {
        let net =
            parse_blif(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n").unwrap();
        assert_eq!(net.inputs().len(), 2);
        assert_eq!(net.eval_comb(&[true, true]).unwrap(), vec![true]);
        assert_eq!(net.eval_comb(&[true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn parse_sop_with_dont_cares() {
        // f = a·!b + c
        let net =
            parse_blif(".model m\n.inputs a b c\n.outputs f\n.names a b c f\n10- 1\n--1 1\n.end\n")
                .unwrap();
        for bits in 0..8u32 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            assert_eq!(
                net.eval_comb(&[a, b, c]).unwrap(),
                vec![(a && !b) || c],
                "bits {bits}"
            );
        }
    }

    #[test]
    fn parse_offset_cover() {
        // f defined by its off-set: f = !(a·b)
        let net =
            parse_blif(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n").unwrap();
        assert_eq!(net.eval_comb(&[true, true]).unwrap(), vec![false]);
        assert_eq!(net.eval_comb(&[false, true]).unwrap(), vec![true]);
    }

    #[test]
    fn parse_constants() {
        let net =
            parse_blif(".model m\n.outputs one zero\n.names one\n1\n.names zero\n.end\n").unwrap();
        assert_eq!(net.eval_comb(&[]).unwrap(), vec![true, false]);
    }

    #[test]
    fn parse_out_of_order_blocks() {
        // g is defined after f uses it.
        let net = parse_blif(
            ".model m\n.inputs a b\n.outputs f\n.names g a f\n11 1\n.names b g\n0 1\n.end\n",
        )
        .unwrap();
        // f = !b & a
        assert_eq!(net.eval_comb(&[true, false]).unwrap(), vec![true]);
        assert_eq!(net.eval_comb(&[true, true]).unwrap(), vec![false]);
    }

    #[test]
    fn parse_latch() {
        let net = parse_blif(
            ".model m\n.inputs a\n.outputs q\n.latch d q 0\n.names a q d\n1- 1\n-1 1\n.end\n",
        )
        .unwrap();
        assert!(net.is_sequential());
        let mut st = crate::SequentialState::new(&net);
        // q starts 0; after a=1 it sticks at 1.
        assert_eq!(st.step(&net, &[false]).unwrap(), vec![false]);
        assert_eq!(st.step(&net, &[true]).unwrap(), vec![false]);
        assert_eq!(st.step(&net, &[false]).unwrap(), vec![true]);
        assert_eq!(st.step(&net, &[false]).unwrap(), vec![true]);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_blif(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.frobnicate\n.end\n"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_blif(".model m\n.inputs a\n.outputs f\n.names a f\n11 1\n.end\n"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_blif(".model m\n.inputs a\n.outputs f\n.end\n"),
            Err(NetlistError::Parse { .. })
        ));
        // Combinational cycle.
        assert!(matches!(
            parse_blif(".model m\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n"),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn errors_name_the_offending_line() {
        let line_of = |text: &str| match parse_blif(text) {
            Err(NetlistError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        };
        // Undefined output: the `.outputs` line that declared it.
        assert_eq!(line_of(".model m\n.inputs a\n.outputs f\n.end\n"), 3);
        // Duplicate input: the second declaration's line.
        assert_eq!(
            line_of(".model m\n.inputs a\n.inputs a\n.outputs a\n.end\n"),
            3
        );
        // A latch output that is also an input.
        assert_eq!(
            line_of(".model m\n.inputs a\n.outputs a\n.latch a a 0\n.end\n"),
            4
        );
        // A signal with two drivers: a block may not define an input.
        assert_eq!(
            line_of(".model m\n.inputs a b\n.outputs a\n.names b a\n0 1\n.end\n"),
            4
        );
        // Duplicate output names.
        assert_eq!(
            line_of(".model m\n.inputs a\n.outputs a\n.outputs a\n.end\n"),
            4
        );
        // A `.names` without signals, after a block whose signals it must
        // not borrow.
        assert!(matches!(
            parse_blif(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names\n.end\n"),
            Err(NetlistError::Parse { line: 6, msg }) if msg.contains("requires at least an output")
        ));
    }

    #[test]
    fn comments_and_continuations() {
        let net = parse_blif(
            "# header\n.model m # trailing\n.inputs \\\na b\n.outputs f\n.names a b f\n11 1\n.end\n",
        )
        .unwrap();
        assert_eq!(net.inputs().len(), 2);
    }

    #[test]
    fn roundtrip_combinational() {
        let mut net = Network::new("rt");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let ab = net.add_and([a, b]).unwrap();
        let nc = net.add_not(c).unwrap();
        let f = net.add_or([ab, nc]).unwrap();
        net.add_output("f", f).unwrap();
        let text = write_blif(&net);
        let back = parse_blif(&text).unwrap();
        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(
                net.eval_comb(&vals).unwrap(),
                back.eval_comb(&vals).unwrap()
            );
        }
    }

    #[test]
    fn streaming_reader_matches_string_parser() {
        let text = ".model m\n.inputs a b\n.outputs f q\n.latch d q 0\n\
                    .names a b g\n11 1\n.names g q d\n1- 1\n-1 1\n\
                    .names g f\n1 1\n.end\n";
        let from_str = parse_blif(text).unwrap();
        let from_reader = parse_blif_reader(std::io::Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(
            from_str.structural_digest(),
            from_reader.structural_digest(),
            "streaming and string fronts build the identical network"
        );
        // CRLF line endings parse the same.
        let crlf = text.replace('\n', "\r\n");
        let from_crlf = parse_blif_reader(std::io::Cursor::new(crlf.as_bytes())).unwrap();
        assert_eq!(from_str.structural_digest(), from_crlf.structural_digest());
    }

    #[test]
    fn path_front_streams_the_file() {
        let path = std::env::temp_dir().join(format!("dominolp-blif-{}.blif", std::process::id()));
        let text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
        std::fs::write(&path, text).unwrap();
        let net = parse_blif_path(&path).unwrap();
        assert_eq!(
            net.structural_digest(),
            parse_blif(text).unwrap().structural_digest()
        );
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(parse_blif_path(&path), Err(NetlistError::Io(_))));
    }

    #[test]
    fn reading_stops_at_end_marker() {
        // Junk after .end is never parsed — the reader exits early.
        let text = ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n.garbage\n";
        assert!(parse_blif_reader(std::io::Cursor::new(text.as_bytes())).is_ok());
    }

    #[test]
    fn deep_chains_do_not_overflow_the_parser() {
        // A 50k-deep inverter chain written blocks-reversed, so the
        // topological order has to walk the full chain from one root —
        // the iterative DFS must not recurse.
        let depth = 50_000;
        let mut text = String::from(".model deep\n.inputs x0\n");
        writeln!(text, ".outputs x{depth}").unwrap();
        for i in (0..depth).rev() {
            writeln!(text, ".names x{} x{}\n0 1", i, i + 1).unwrap();
        }
        text.push_str(".end\n");
        let net = parse_blif_reader(std::io::Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(net.inputs().len(), 1);
        assert_eq!(net.outputs().len(), 1);
        // Even depth of inverters: identity.
        assert_eq!(net.eval_comb(&[true]).unwrap(), vec![true]);
        assert_eq!(net.eval_comb(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn roundtrip_sequential() {
        let mut net = Network::new("rt");
        let a = net.add_input("a").unwrap();
        let q = net.add_latch(false);
        net.set_node_name(q, "q").unwrap();
        let g = net.add_or([a, q]).unwrap();
        net.set_latch_data(q, g).unwrap();
        net.add_output("out", g).unwrap();
        let text = write_blif(&net);
        let back = parse_blif(&text).unwrap();
        let mut s1 = crate::SequentialState::new(&net);
        let mut s2 = crate::SequentialState::new(&back);
        for a in [false, true, false, false] {
            assert_eq!(s1.step(&net, &[a]).unwrap(), s2.step(&back, &[a]).unwrap());
        }
    }
}

//! BLIF interchange: generated workloads survive a write/parse round trip
//! and can enter the flow from BLIF text (how real MCNC files would come
//! in). The property battery at the bottom treats the parser as facing
//! untrusted bytes: round trips keep structure, the streaming reader
//! agrees with the string parser at any buffer size, and truncated or
//! garbled text is an error with a line number, never a panic.

use std::io::BufReader;

use dominolp::netlist::{parse_blif, parse_blif_reader, write_blif, NetlistError, Network};
use dominolp::phase::flow::{minimize_power, FlowConfig};
use dominolp::sim::VectorSource;
use dominolp::workloads::{generate, generate_giant, GeneratorSpec, GiantSpec};
use proptest::prelude::*;

#[test]
fn roundtrip_generated_combinational() {
    for seed in 0..4u64 {
        let spec = GeneratorSpec::control_block(format!("rt{seed}"), 12, 5, 50, seed);
        let net = generate(&spec).expect("generator succeeds");
        let text = write_blif(&net);
        let back = parse_blif(&text).expect("roundtrip parses");
        assert_eq!(back.inputs().len(), net.inputs().len());
        assert_eq!(back.outputs().len(), net.outputs().len());
        let mut vectors = VectorSource::uniform(12, 40 + seed);
        for _ in 0..200 {
            let v = vectors.next_vector();
            assert_eq!(
                net.eval_comb(&v).expect("eval"),
                back.eval_comb(&v).expect("eval")
            );
        }
    }
}

#[test]
fn roundtrip_generated_sequential() {
    use dominolp::netlist::SequentialState;
    let spec = GeneratorSpec {
        n_latches: 5,
        ..GeneratorSpec::control_block("rtseq", 8, 3, 40, 5)
    };
    let net = generate(&spec).expect("generator succeeds");
    let text = write_blif(&net);
    let back = parse_blif(&text).expect("roundtrip parses");
    let mut s1 = SequentialState::new(&net);
    let mut s2 = SequentialState::new(&back);
    let mut vectors = VectorSource::uniform(8, 60);
    for cycle in 0..200 {
        let v = vectors.next_vector();
        assert_eq!(
            s1.step(&net, &v).expect("step"),
            s2.step(&back, &v).expect("step"),
            "cycle {cycle}"
        );
    }
}

#[test]
fn flow_runs_from_blif_text() {
    // A hand-written BLIF (two-level PLA style, as MCNC ships) through the
    // whole min-power flow.
    let text = "\
.model pla
.inputs a b c d
.outputs f g
.names a b c f
11- 1
--1 1
.names a d x
10 1
01 1
.names x c g
11 0
.end
";
    let net = parse_blif(text).expect("parses");
    let report = minimize_power(&net, &[0.5; 4], &FlowConfig::default()).expect("flow");
    assert!(report.domino.is_inverter_free());
    for bits in 0..16u32 {
        let v: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
        assert_eq!(
            report.domino.eval(&v).expect("eval"),
            net.eval_comb(&v).expect("eval")
        );
    }
}

/// An output driven straight from a source is written as a buffer block,
/// `.names a x` / `1 1`; parsing it maps `x` to the source and keeps the
/// source's own name, so the interface and the structural digest (the
/// circuit's cache key) survive the round trip.
#[test]
fn output_driven_straight_from_an_input_round_trips() {
    let mut net = Network::new("buf");
    let a = net.add_input("a").expect("fresh name");
    let b = net.add_input("b").expect("fresh name");
    let f = net.add_and([a, b]).expect("valid fanins");
    net.add_output("f", f).expect("fresh name");
    net.add_output("x", a).expect("fresh name");
    let text = write_blif(&net);
    assert!(text.contains(".names a x\n1 1\n"), "{text}");
    let back = parse_blif(&text).expect("written BLIF parses");
    let names: Vec<_> = back
        .inputs()
        .iter()
        .map(|&i| back.node(i).name.as_deref())
        .collect();
    assert_eq!(names, [Some("a"), Some("b")]);
    assert_eq!(back.outputs()[1].driver, back.inputs()[0]);
    assert_eq!(back.structural_digest(), net.structural_digest());
}

#[test]
fn output_driven_straight_from_a_latch_round_trips() {
    let mut net = Network::new("qbuf");
    let a = net.add_input("a").expect("fresh name");
    let q = net.add_latch(true);
    net.set_node_name(q, "q").expect("known id");
    let nq = net.add_not(q).expect("valid fanin");
    let d = net.add_and([a, nq]).expect("valid fanins");
    net.set_latch_data(q, d).expect("latch");
    net.add_output("y", q).expect("fresh name");
    let back = parse_blif(&write_blif(&net)).expect("written BLIF parses");
    let q_back = back.latches()[0];
    assert_eq!(back.node(q_back).name.as_deref(), Some("q"));
    assert_eq!(back.outputs()[0].driver, q_back);
    assert_eq!(back.structural_digest(), net.structural_digest());
    // A second round trip is the identity.
    let again = parse_blif(&write_blif(&back)).expect("written BLIF parses");
    assert!(again == back, "second round trip changed the network");
}

/// Port names are checked through sets, so a model with 100,000 inputs
/// parses in linear time, and a duplicate input is still an error naming
/// its `.inputs` line.
#[test]
fn wide_models_parse_and_still_reject_duplicates() {
    let names: Vec<String> = (0..100_000).map(|i| format!("i{i}")).collect();
    let text = format!(
        ".model wide\n.inputs {}\n.outputs f\n.names i0 i99999 f\n11 1\n.end\n",
        names.join(" ")
    );
    let net = parse_blif(&text).expect("wide model parses");
    assert_eq!(net.inputs().len(), 100_000);
    let dup = format!(
        ".model wide\n.inputs {}\n.inputs i7\n.outputs f\n.names i0 f\n1 1\n.end\n",
        names.join(" ")
    );
    match parse_blif(&dup) {
        Err(NetlistError::Parse { line: 3, msg }) => assert!(msg.contains("i7"), "{msg}"),
        other => panic!("duplicate input accepted or misreported: {other:?}"),
    }
}

/// A random `generate` network: 6–15 inputs, 2–6 outputs, 20–59 gates,
/// `latches` latches.
fn generated(seed: u64, latches: usize) -> Network {
    let spec = GeneratorSpec {
        n_latches: latches,
        ..GeneratorSpec::control_block(
            format!("p{seed}"),
            6 + (seed % 10) as usize,
            2 + (seed % 5) as usize,
            20 + (seed % 40) as usize,
            seed,
        )
    };
    generate(&spec).expect("generator succeeds")
}

/// The parser is total on `text`: it returns `Ok` or `Err`, and every
/// error names a line of the input.
fn assert_total(text: &str) {
    match parse_blif(text) {
        Ok(_) => {}
        Err(NetlistError::Parse { line, msg }) => {
            let lines = text.lines().count();
            assert!(
                (1..=lines).contains(&line),
                "error line {line} outside the input's {lines} lines: {msg}"
            );
        }
        Err(other) => panic!("error without a line number: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Written BLIF parses back to the same structure, combinational or
    /// with latches.
    #[test]
    fn written_blif_keeps_the_structural_digest(seed in 0u64..1_000_000, latches in 0usize..4) {
        let net = generated(seed, latches);
        let back = parse_blif(&write_blif(&net)).expect("written BLIF parses");
        prop_assert_eq!(back.structural_digest(), net.structural_digest());
    }

    /// `generate_giant` interleaves latches with gates, so the first
    /// parse renumbers nodes (latches first); from then on a round trip
    /// is the identity.
    #[test]
    fn giant_round_trips_are_stable_after_the_first(
        seed in 0u64..1_000_000,
        inputs in 8usize..24,
        outputs in 2usize..6,
        depth in 2usize..7,
    ) {
        let giant = generate_giant(&GiantSpec::giant("g", inputs, outputs, depth, 2, seed))
            .expect("giant generates");
        let once = parse_blif(&write_blif(&giant)).expect("written BLIF parses");
        let twice = parse_blif(&write_blif(&once)).expect("written BLIF parses");
        prop_assert!(twice == once, "second round trip changed the network");
    }

    /// The streaming reader builds the same network as the string parser
    /// over any reader buffer size, with LF or CRLF line endings.
    #[test]
    fn reader_matches_string_parser(seed in 0u64..1_000_000, capacity in 1usize..160, crlf: bool) {
        let text = write_blif(&generated(seed, (seed % 3) as usize));
        let want = parse_blif(&text).expect("written BLIF parses");
        let fed = if crlf { text.replace('\n', "\r\n") } else { text };
        let got = parse_blif_reader(BufReader::with_capacity(capacity, fed.as_bytes()))
            .expect("reader parses");
        prop_assert!(got == want, "reader built a different network");
    }

    /// Truncated or garbled BLIF never panics the parser, and each error
    /// carries a line number inside the input.
    #[test]
    fn prefixes_and_byte_edits_are_handled(
        seed in 0u64..1_000_000,
        cut in 0usize..1_000_000,
        edits in proptest::collection::vec((0usize..1_000_000, 0u32..128), 1..6),
    ) {
        let text = write_blif(&generated(seed, (seed % 3) as usize));
        assert_total(&text[..cut % (text.len() + 1)]);
        let mut bytes = text.into_bytes();
        for (pos, byte) in edits {
            let at = pos % bytes.len();
            bytes[at] = byte as u8;
        }
        let edited = String::from_utf8(bytes).expect("ASCII edits keep UTF-8");
        assert_total(&edited);
        // The streaming front agrees with the string front on garbage too.
        let streamed = parse_blif_reader(BufReader::with_capacity(7, edited.as_bytes()));
        prop_assert_eq!(streamed.is_ok(), parse_blif(&edited).is_ok());
    }
}

//! Seeded input generators.
//!
//! Every SMV program carries the verdicts its specs must get, derived
//! from how its family is built (one token that only moves; a client
//! that may fetch but never has to), never from a checker under test.
//! The same seed always yields the same programs in the same order.

use cmc_store::ObligationKey;
use std::collections::{HashMap, HashSet};

/// SplitMix64: a small seedable generator that gives the same stream on
/// every platform, so a seed names one input set.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
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

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// An independent stream derived from this one.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// The family and size of a generated SMV program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// A token ring with this many stations (`≥ 4`).
    Ring(usize),
    /// An AFS-style cache with this many clients (`1..=6`).
    Afs(usize),
}

impl Shape {
    /// Number of valid states of the program's variables: the figure the
    /// `Auto` rule of `cmc_smv` compares against `2^16`.
    pub fn valid_states(self) -> u128 {
        match self {
            Shape::Ring(n) => 1u128 << n,
            Shape::Afs(c) => 2 * 3u128.pow(c as u32),
        }
    }

    /// Small enough to enumerate cheaply, so both engines can be asked.
    pub fn fits_explicit(self) -> bool {
        self.valid_states() <= 1 << 16
    }

    /// Short label such as `ring16` or `afs3`.
    pub fn label(self) -> String {
        match self {
            Shape::Ring(n) => format!("ring{n}"),
            Shape::Afs(c) => format!("afs{c}"),
        }
    }
}

/// One generated SMV program and the verdicts its `SPEC`s must get, in
/// source order.
#[derive(Debug, Clone)]
pub struct Program {
    /// Family and size.
    pub shape: Shape,
    /// `MODULE main` source.
    pub source: String,
    /// `(spec text, expected verdict)` per `SPEC`.
    pub expected: Vec<(String, bool)>,
}

impl Program {
    /// The expected verdicts alone.
    pub fn verdicts(&self) -> Vec<bool> {
        self.expected.iter().map(|(_, v)| *v).collect()
    }
}

/// Makes distinct programs: each call for a shape takes that shape's
/// next variant, and a guard refuses any program whose normalised
/// source (the daemon's store key basis) was already emitted.
#[derive(Debug)]
pub struct ProgramFactory {
    rng: Rng,
    next_variant: HashMap<Shape, usize>,
    seen: HashSet<u128>,
}

impl ProgramFactory {
    /// A factory whose spec choices follow `seed`.
    pub fn new(seed: u64) -> Self {
        ProgramFactory {
            rng: Rng::new(seed),
            next_variant: HashMap::new(),
            seen: HashSet::new(),
        }
    }

    /// The next distinct program of `shape`.
    ///
    /// # Panics
    /// If the source repeats one already emitted by this factory: the
    /// cold workload would then hit the store and measure nothing cold.
    pub fn make(&mut self, shape: Shape) -> Program {
        let slot = self.next_variant.entry(shape).or_insert(0);
        let variant = *slot;
        *slot += 1;
        let program = match shape {
            Shape::Ring(n) => ring_program(n, variant, &mut self.rng),
            Shape::Afs(c) => afs_program(c, variant, &mut self.rng),
        };
        let key = ObligationKey::source_spec(&program.source, "").0;
        assert!(
            self.seen.insert(key),
            "generator repeated a source ({} variant {variant})",
            shape.label()
        );
        program
    }
}

/// `base` for variant block 0, then `base` plus a letter suffix, so
/// variable names differ once a shape's semantic variants run out.
fn prefix(base: &str, block: usize) -> String {
    let mut name = base.to_string();
    if block > 0 {
        let mut k = block;
        let mut suffix = Vec::new();
        while k > 0 {
            suffix.push(b'a' + (k % 26) as u8);
            k /= 26;
        }
        suffix.reverse();
        name.push_str(std::str::from_utf8(&suffix).expect("ascii suffix"));
    }
    name
}

/// An `n`-station ring, variant `v`: the token starts at station
/// `v mod n` and rotates forwards or backwards (`v / n` even or odd).
///
/// Known answers, from the construction (one token, deterministic
/// rotation, the paper's reflexive stutter):
/// * `AG !(tᵢ & tᵢ₊₁)` — true, there is only ever one token;
/// * `EF tₓ` — true, the token visits every station;
/// * `AG (tᵧ -> EX tᵧ₊d)` — true, the rotation hands the token on;
/// * `AG t_start` — false, the token moves;
/// * `AG !t_z` for `z ≠ start` — false, the token reaches `z`.
fn ring_program(n: usize, v: usize, rng: &mut Rng) -> Program {
    assert!(n >= 4, "a ring needs at least 4 stations");
    let start = v % n;
    let step = if (v / n).is_multiple_of(2) { 1 } else { n - 1 };
    let t = prefix("t", v / (2 * n));
    let mut src = String::from("MODULE main\nVAR\n");
    for i in 0..n {
        src.push_str(&format!("  {t}{i} : boolean;\n"));
    }
    src.push_str("ASSIGN\n");
    for i in 0..n {
        src.push_str(&format!("  init({t}{i}) := {};\n", u8::from(i == start)));
    }
    for i in 0..n {
        src.push_str(&format!("  next({t}{i}) := {t}{};\n", (i + n - step) % n));
    }
    let mut pairs: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut pairs);
    let mut expected = Vec::new();
    for &i in &pairs[..3] {
        expected.push((format!("AG !({t}{i} & {t}{})", (i + 1) % n), true));
    }
    let x = rng.below(n);
    expected.push((format!("EF {t}{x}"), true));
    let y = rng.below(n);
    expected.push((format!("AG ({t}{y} -> EX {t}{})", (y + step) % n), true));
    expected.push((format!("AG {t}{start}"), false));
    let z = (start + 1 + rng.below(n - 1)) % n;
    expected.push((format!("AG !{t}{z}"), false));
    for (text, _) in &expected {
        src.push_str(&format!("SPEC {text}\n"));
    }
    Program {
        shape: Shape::Ring(n),
        source: src,
        expected,
    }
}

/// An AFS-style cache with `clients` clients, variant `v`: client
/// `v mod clients` is observed and the server starts idle or busy
/// (`v / clients` even or odd).
///
/// Known answers, from the construction (a client may fetch from an
/// idle server, may drop a valid copy, and is never forced to fetch):
/// * `EF c = valid` — true;
/// * `AG !(c = fetch & c = valid)` — true, one value at a time;
/// * `AG (c = valid -> EF c = invalid)` — true, validity can be dropped;
/// * `EF c' = fetch` for another seeded client — true;
/// * `AF c = valid` — false, a client may never fetch.
fn afs_program(clients: usize, v: usize, rng: &mut Rng) -> Program {
    assert!((1..=6).contains(&clients), "1..=6 clients supported");
    let observed = v % clients;
    let srv_init = if (v / clients).is_multiple_of(2) {
        "idle"
    } else {
        "busy"
    };
    let c = prefix("c", v / (2 * clients));
    let mut src = String::from("MODULE main\nVAR\n  srv : {idle, busy};\n");
    for i in 0..clients {
        src.push_str(&format!("  {c}{i} : {{invalid, fetch, valid}};\n"));
    }
    src.push_str(&format!(
        "ASSIGN\n  init(srv) := {srv_init};\n  next(srv) := {{idle, busy}};\n"
    ));
    for i in 0..clients {
        src.push_str(&format!(
            "  init({c}{i}) := invalid;\n  next({c}{i}) :=\n    case\n      \
             {c}{i} = invalid : {{invalid, fetch}};\n      \
             {c}{i} = fetch & srv = idle : valid;\n      \
             {c}{i} = valid : {{valid, invalid}};\n      \
             1 : {c}{i};\n    esac;\n"
        ));
    }
    let o = observed;
    let other = rng.below(clients);
    let expected = vec![
        (format!("EF {c}{o} = valid"), true),
        (format!("AG !({c}{o} = fetch & {c}{o} = valid)"), true),
        (format!("AG ({c}{o} = valid -> EF {c}{o} = invalid)"), true),
        (format!("EF {c}{other} = fetch"), true),
        (format!("AF {c}{o} = valid"), false),
    ];
    for (text, _) in &expected {
        src.push_str(&format!("SPEC {text}\n"));
    }
    Program {
        shape: Shape::Afs(clients),
        source: src,
        expected,
    }
}

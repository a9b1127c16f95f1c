//! Emit stability: for any `Json` value (finite floats, depth ≤ 8),
//! emitting, parsing and emitting again reproduces the first emission
//! byte for byte, with both the compact and the pretty printer.

use lazyeye_json::Json;
use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};

/// Maximum container nesting of a generated value.
const MAX_DEPTH: u32 = 8;
/// Maximum number of nodes in one generated value.
const MAX_NODES: u32 = 96;

/// Strategy for arbitrary `Json` values.
struct ArbJson;

impl Strategy for ArbJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let mut budget = MAX_NODES;
        value(rng, 0, &mut budget)
    }
}

fn below(rng: &mut TestRng, n: u32) -> u32 {
    (0..n).generate(rng)
}

fn value(rng: &mut TestRng, depth: u32, budget: &mut u32) -> Json {
    *budget = budget.saturating_sub(1);
    // Half of the nodes are containers while depth and budget allow, so
    // deep nesting is common.
    let nest = depth < MAX_DEPTH && *budget > 0 && below(rng, 2) == 0;
    match if nest {
        6 + below(rng, 2)
    } else {
        below(rng, 6)
    } {
        0 => Json::Null,
        1 => Json::Bool(any::<bool>().generate(rng)),
        2 => Json::Int(any::<i64>().generate(rng) >> below(rng, 64)),
        3 => Json::UInt(any::<u64>().generate(rng)),
        4 => Json::Float(finite_float(rng)),
        5 => Json::Str(string(rng)),
        6 => {
            let n = below(rng, 4);
            Json::Arr((0..n).map(|_| value(rng, depth + 1, budget)).collect())
        }
        _ => {
            let n = below(rng, 4);
            Json::Obj(
                (0..n)
                    .map(|_| (string(rng), value(rng, depth + 1, budget)))
                    .collect(),
            )
        }
    }
}

/// Finite floats: raw bit patterns (any exponent, subnormals), plain
/// decimals, and the edge values.
fn finite_float(rng: &mut TestRng) -> f64 {
    match below(rng, 3) {
        0 => loop {
            let f = f64::from_bits(any::<u64>().generate(rng));
            if f.is_finite() {
                return f;
            }
        },
        1 => (any::<i32>().generate(rng) as f64) / 1000.0,
        _ => {
            const EDGES: [f64; 10] = [
                0.0,
                -0.0,
                1.0,
                -1.5,
                f64::MIN_POSITIVE,
                5e-324,
                f64::MAX,
                f64::MIN,
                1e19,
                9_223_372_036_854_775_808.0,
            ];
            EDGES[below(rng, EDGES.len() as u32) as usize]
        }
    }
}

/// Strings biased towards the bytes the escaper handles: quotes,
/// backslashes, control characters and non-ASCII.
fn string(rng: &mut TestRng) -> String {
    let n = below(rng, 8);
    (0..n)
        .map(|_| match below(rng, 4) {
            0 => char::from(b"\"\\/\n\r\t\x08\x0c\x00\x1f"[below(rng, 10) as usize]),
            1 => char::from_u32(below(rng, 0x20)).unwrap(),
            2 => char::from_u32(below(rng, 0x11_0000)).unwrap_or('\u{fffd}'),
            _ => char::from(b'a' + below(rng, 26) as u8),
        })
        .collect()
}

/// Nesting depth of a value (a scalar is depth 0).
fn depth(v: &Json) -> u32 {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn generator_reaches_the_depth_bound() {
    let mut rng = TestRng::for_test("depth");
    let depths: Vec<u32> = (0..256)
        .map(|_| depth(&ArbJson.generate(&mut rng)))
        .collect();
    assert!(depths.iter().all(|&d| d <= MAX_DEPTH), "{depths:?}");
    assert!(depths.contains(&MAX_DEPTH), "{depths:?}");
}

proptest! {
    #[test]
    fn compact_emission_is_stable(v in ArbJson) {
        let first = v.to_string_compact();
        let parsed = Json::parse(&first).map_err(|e| {
            TestCaseError::fail(format!("{first:?} does not parse: {e}"))
        })?;
        prop_assert_eq!(parsed.to_string_compact(), first);
    }

    #[test]
    fn pretty_emission_is_stable(v in ArbJson) {
        let first = v.to_string_pretty();
        let parsed = Json::parse(&first).map_err(|e| {
            TestCaseError::fail(format!("{first:?} does not parse: {e}"))
        })?;
        prop_assert_eq!(parsed.to_string_pretty(), first);
    }
}

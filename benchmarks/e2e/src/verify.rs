//! Reply verification: every reply is reduced to a [`Digest`] — the answer
//! count, an order-independent checksum of the rows, and the engine's exact
//! work counts — and compared with the expected digest of its statement.
//!
//! Expected digests come from `golden_seed42.json` for the default seed and,
//! for any other seed, from the first reply per statement (every repeat
//! must then match it).

use ecrpq_util::json::{self, Value};
use std::collections::BTreeMap;

pub const GOLDEN_SEED: u64 = 42;
const GOLDEN: &str = include_str!("../golden_seed42.json");

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Digest {
    /// Row count (nodes mode) or 0/1 (boolean mode).
    pub answer: u64,
    pub checksum: u64,
    pub candidates: u64,
    pub verified: u64,
    pub search_states: u64,
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Sum of the rows' FNV-1a hashes: equal for equal row multisets in any
/// order, so the rows need not be sorted first.
fn rows_checksum(rows: &[Value]) -> u64 {
    rows.iter().fold(0u64, |sum, row| {
        let cells = row.as_arr().unwrap_or(&[]);
        let h = cells
            .iter()
            .fold(FNV_OFFSET, |h, c| fnv1a(&[0xFF], fnv1a(c.as_str().unwrap_or("").as_bytes(), h)));
        sum.wrapping_add(h)
    })
}

fn field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("reply lacks integer `{key}`"))
}

/// Parses a reply and requires `ok: true`.
pub fn parse_ok(reply: &str) -> Result<Value, String> {
    let v = json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(v),
        _ => Err(format!(
            "server refused: {}",
            v.get("error").and_then(Value::as_str).unwrap_or("reply without ok:true")
        )),
    }
}

/// Reduces an `ok` `run`/`trace` reply to its digest.
pub fn digest(v: &Value) -> Result<Digest, String> {
    let stats = v.get("stats").ok_or("reply lacks `stats`")?;
    let (answer, checksum) = match v.get("answer").and_then(Value::as_bool) {
        Some(b) => (u64::from(b), 0),
        None => {
            let rows = v.get("answers").and_then(Value::as_arr).ok_or("reply lacks `answers`")?;
            if field(v, "count")? != rows.len() as u64 {
                return Err("`count` disagrees with the number of rows".into());
            }
            (rows.len() as u64, rows_checksum(rows))
        }
    };
    Ok(Digest {
        answer,
        checksum,
        candidates: field(stats, "candidates")?,
        verified: field(stats, "verified")?,
        search_states: field(stats, "search_states")?,
    })
}

/// A warm reply binds nothing and compiles nothing.
pub fn require_warm(v: &Value) -> Result<(), String> {
    if v.get("registry").and_then(Value::as_str) != Some("hit") {
        return Err("warm run was not a registry hit".into());
    }
    match v.get("stats").map(|s| field(s, "sim_cache_misses")) {
        Some(Ok(0)) => Ok(()),
        _ => Err("warm run compiled a simulation table".into()),
    }
}

/// Expected digests by key (`<statement>` or `<statement>@<state>`).
#[derive(Default)]
pub struct Expected {
    map: BTreeMap<String, Digest>,
    /// Whether the digests came from the golden file (else: first reply).
    from_golden: bool,
}

impl Expected {
    /// The golden digests of `workload` when `seed` is the golden seed and
    /// the file has them; otherwise empty, to be filled by first replies.
    pub fn for_run(workload: &str, seed: u64) -> Expected {
        let golden = json::parse(GOLDEN).expect("golden_seed42.json is valid JSON");
        let entries = match golden.get(workload) {
            Some(Value::Obj(entries)) if seed == GOLDEN_SEED => entries.clone(),
            _ => return Expected::default(),
        };
        let from_row = |row: &Value| -> Option<Digest> {
            let row = row.as_arr()?;
            Some(Digest {
                answer: row.first()?.as_u64()?,
                checksum: u64::from_str_radix(row.get(1)?.as_str()?, 16).ok()?,
                candidates: row.get(2)?.as_u64()?,
                verified: row.get(3)?.as_u64()?,
                search_states: row.get(4)?.as_u64()?,
            })
        };
        let map = entries
            .iter()
            .map(|(key, row)| (key.clone(), from_row(row).expect("malformed golden digest")))
            .collect();
        Expected { map, from_golden: true }
    }

    /// Checks `got` against the digest expected under `key`; the first
    /// digest seen for a key with no golden entry becomes its reference.
    pub fn check(&mut self, key: &str, got: Digest) -> Result<(), String> {
        match self.map.get(key) {
            None if self.from_golden => Err(format!("no golden digest for `{key}`")),
            None => {
                self.map.insert(key.to_string(), got);
                Ok(())
            }
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!("wrong answer for `{key}`: expected {want:?}, got {got:?}")),
        }
    }

    /// Checks `got` against any of the digests under keys starting with
    /// `prefix` (a reader racing a writer sees one of the known states).
    pub fn check_any(&self, prefix: &str, got: &Digest) -> Result<(), String> {
        if self.map.iter().any(|(k, d)| k.starts_with(prefix) && d == got) {
            Ok(())
        } else {
            Err(format!("answer matches no known state of `{prefix}`: {got:?}"))
        }
    }

    pub fn get(&self, key: &str) -> Option<&Digest> {
        self.map.get(key)
    }

    /// The golden-file entry for one workload.
    pub fn to_golden(&self) -> Value {
        Value::Obj(
            self.map
                .iter()
                .map(|(k, d)| {
                    let row = vec![
                        Value::int(d.answer),
                        Value::str(format!("{:016x}", d.checksum)),
                        Value::int(d.candidates),
                        Value::int(d.verified),
                        Value::int(d.search_states),
                    ];
                    (k.clone(), Value::Arr(row))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = r#"{"ok":true,"registry":"hit","count":2,"answers":[["n1","n2"],["n3","n4"]],
        "stats":{"candidates":2,"verified":2,"search_states":0,"sim_cache_hits":1,"sim_cache_misses":0}}"#;

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = digest(&parse_ok(REPLY).unwrap()).unwrap();
        let swapped = REPLY.replace(r#"[["n1","n2"],["n3","n4"]]"#, r#"[["n3","n4"],["n1","n2"]]"#);
        assert_eq!(a, digest(&parse_ok(&swapped).unwrap()).unwrap());
        let moved = REPLY.replace(r#"["n1","n2"]"#, r#"["n1n","2"]"#);
        assert_ne!(a.checksum, digest(&parse_ok(&moved).unwrap()).unwrap().checksum);
        let wrong_count = REPLY.replace(r#""count":2"#, r#""count":3"#);
        assert!(digest(&parse_ok(&wrong_count).unwrap()).is_err());
    }

    #[test]
    fn refusals_cold_replies_and_wrong_answers_are_caught() {
        assert!(parse_ok(r#"{"ok":false,"error":"unknown graph"}"#)
            .unwrap_err()
            .contains("unknown"));
        assert!(parse_ok("not json").is_err());
        let v = parse_ok(REPLY).unwrap();
        assert!(require_warm(&v).is_ok());
        assert!(require_warm(&parse_ok(&REPLY.replace("hit", "miss")).unwrap()).is_err());
        assert!(
            require_warm(&parse_ok(&REPLY.replace("misses\":0", "misses\":1")).unwrap()).is_err()
        );

        let mut e = Expected::default();
        let d = digest(&v).unwrap();
        e.check("q", d.clone()).unwrap();
        e.check("q", d.clone()).unwrap();
        assert!(e.check("q", Digest { verified: 9, ..d.clone() }).is_err());
        assert!(e.check_any("q", &d).is_ok());
        assert!(e.check_any("other", &d).is_err());
    }

    #[test]
    fn golden_file_covers_every_workload_and_only_its_seed() {
        for w in ["serve_point", "serve_eval", "serve_rw", "cold_start"] {
            let e = Expected::for_run(w, GOLDEN_SEED);
            assert!(e.from_golden && !e.map.is_empty(), "no golden digests for {w}");
            // What `--write-golden` would write back is what was read.
            assert_eq!(json::parse(GOLDEN).unwrap().get(w), Some(&e.to_golden()));
            assert!(Expected::for_run(w, GOLDEN_SEED + 1).map.is_empty());
        }
        let mut e = Expected::for_run("serve_eval", GOLDEN_SEED);
        let wide = e.get("wide").unwrap().clone();
        assert_eq!(wide.answer, 65_536);
        assert!(e.check("wide", Digest { checksum: wide.checksum ^ 1, ..wide.clone() }).is_err());
        assert!(e.check("unknown", wide).is_err(), "a golden run accepts no unlisted key");
    }
}

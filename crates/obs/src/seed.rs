//! The one test seed, and the labelled streams drawn from it.
//!
//! Every seeded suite and harness gets its randomness here: a [`Seed`] is
//! read from `HEDC_TEST_SEED` (or a suite's default) by the only function
//! in the workspace that looks at that variable, and hands out independent
//! [`Stream`]s by label — `seed.stream("node-faults")`,
//! `"workflow-crash"`, `"clients"`. A consumer draws from the stream it was
//! handed and never owns a generator or reads the environment, so one
//! printed seed replays every fault source of a run together, and drawing
//! more from one stream moves no other. It lives in this crate because
//! this is the one crate every tier already links.

use std::cell::Cell;

/// Advance a [SplitMix64] state and return the next draw. One `u64` of
/// state, and — unlike hashing a counter — identical across platforms and
/// std versions, which is what replaying a printed seed needs.
///
/// [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed grammar: surrounding whitespace ignored, then decimal or
/// `0x`/`0X`-prefixed hex. `scripts/check.sh --seed` accepts exactly this.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    let s = text.trim();
    // std's integer parsers take a leading `+`; a seed is digits only.
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        _ if s.contains('+') => None,
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    };
    parsed.ok_or_else(|| format!("`{text}` is not a decimal or 0x-hex u64"))
}

/// The root of a seeded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed(pub u64);

impl Seed {
    /// `HEDC_TEST_SEED` when the environment sets it, else `default`.
    /// Panics, naming the variable, on a value [`parse_seed`] rejects — a
    /// replay that silently ran some other seed is worse than none. Prints
    /// the seed once per test thread (libtest captures output per test, so
    /// every failing test shows the line that replays it).
    pub fn from_env(default: u64) -> Seed {
        let value = match std::env::var("HEDC_TEST_SEED") {
            Ok(text) => parse_seed(&text).unwrap_or_else(|e| panic!("HEDC_TEST_SEED: {e}")),
            Err(_) => default,
        };
        thread_local! {
            static PRINTED: Cell<Option<u64>> = const { Cell::new(None) };
        }
        if PRINTED.with(|p| p.replace(Some(value))) != Some(value) {
            println!("seed {value:#x} (replay: scripts/check.sh --seed {value:#x})");
        }
        Seed(value)
    }

    /// The independent stream named `label`: its draws depend on the seed
    /// and the label only, never on what other streams have drawn.
    pub fn stream(self, label: &str) -> Stream {
        // FNV-1a over the label, mixed into the seed through one
        // SplitMix64 step so near-identical labels start far apart.
        let mut state = label.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        }) ^ self.0;
        Stream(splitmix64(&mut state))
    }
}

/// One deterministic SplitMix64 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream(pub u64);

impl Stream {
    /// The next raw draw.
    pub fn draw(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// A draw in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw() % n
    }

    /// True `p` times in 1000.
    pub fn per_mille(&mut self, p: u32) -> bool {
        self.below(1000) < u64::from(p)
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A child stream seeded by this stream's next draw: one per client,
    /// per replica, per case.
    pub fn fork(&mut self) -> Stream {
        Stream(self.draw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_grammar_accepts_decimal_and_hex_and_rejects_the_rest() {
        for (text, want) in [
            ("42", 42),
            (" 42\n", 42),
            ("0x2A", 42),
            ("0X2a", 42),
            ("0", 0),
            ("18446744073709551615", u64::MAX),
            ("0xFFFFFFFFFFFFFFFF", u64::MAX),
        ] {
            assert_eq!(parse_seed(text), Ok(want), "{text:?}");
        }
        for text in [
            "",
            "banana",
            "-1",
            "+7",
            "0x",
            "0x+2A",
            "2A",
            "0x1G",
            "4 2",
            "1e3",
            "42.0",
            "18446744073709551616",
        ] {
            assert!(parse_seed(text).is_err(), "{text:?} must be rejected");
        }
    }

    #[test]
    fn streams_replay_and_do_not_disturb_each_other() {
        let draws = |s: &mut Stream| (0..8).map(|_| s.draw()).collect::<Vec<_>>();
        let seed = Seed(7);
        let (mut a, mut b) = (seed.stream("node-faults"), seed.stream("clients"));
        let first_b = draws(&mut b);
        assert_eq!(draws(&mut a), draws(&mut seed.stream("node-faults")));
        assert_ne!(draws(&mut a.clone()), first_b, "labels must diverge");
        // `a` has drawn sixteen values by now; `b`'s stream is where it was.
        assert_eq!(first_b, draws(&mut seed.stream("clients")));
        assert_ne!(
            draws(&mut Seed(8).stream("clients")),
            first_b,
            "seeds must diverge"
        );
    }

    #[test]
    fn helpers_stay_in_range_and_shuffle_permutes() {
        let mut s = Seed(3).stream("helpers");
        assert!((0..200).all(|_| s.below(5) < 5));
        assert!((0..50).all(|_| !s.per_mille(0)) && (0..50).all(|_| s.per_mille(1000)));
        let hits = (0..4000).filter(|_| s.per_mille(250)).count();
        assert!((800..1200).contains(&hits), "{hits}");
        assert!([10, 20, 30].contains(s.pick(&[10, 20, 30])));
        let mut v: Vec<u32> = (0..32).collect();
        s.shuffle(&mut v);
        assert_ne!(v, (0..32).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..32).collect::<Vec<_>>());
        assert_ne!(s.fork(), s.fork());
    }
}

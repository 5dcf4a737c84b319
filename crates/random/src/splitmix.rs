//! SplitMix64: seed derivation and a minimal PRNG core.

/// SplitMix64 PRNG (Steele, Lea & Flood 2014).
///
/// Used only for *seed derivation* — mixing a master seed with purpose tags
/// into sub-stream seeds. Statistical quality is more than sufficient for
/// that; protocol-visible randomness then flows through `rand::SmallRng`
/// seeded from the derived value.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// New generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derive a sub-seed from a base seed and a sequence of purpose tags.
///
/// Distinct tag sequences yield (with overwhelming probability) independent
/// seeds; identical sequences yield identical seeds. This is the agreement
/// mechanism behind every shared random choice in the protocol.
pub fn derive_seed(base: u64, tags: &[u64]) -> u64 {
    let mut mixer = SplitMix64::new(base ^ 0xd1b5_4a32_d192_ed03);
    tags.iter()
        .fold(mixer.next_u64(), |acc, &t| derive_step(acc, t))
}

/// Feed one more tag into a [`derive_seed`] accumulator, so that
/// `derive_seed(b, ts ++ [t]) == derive_step(derive_seed(b, ts), t)`.
///
/// Callers deriving many seeds that share a tag prefix compute the
/// prefix once and pay one step per final tag: the resident drift fold
/// hashes `[TAG_DRIFT, epoch, player]` once per row and steps once per
/// object.
#[inline]
pub fn derive_step(acc: u64, tag: u64) -> u64 {
    // Feed the tag through the mixer state so order matters.
    SplitMix64::new(acc ^ tag.wrapping_mul(0xff51_afd7_ed55_8ccd)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Stepping a prefix's seed by one tag is deriving the longer
        /// list: the law the resident drift fold's hoisted row prefix
        /// rests on.
        #[test]
        fn derive_step_extends_the_tag_list(
            base in 0u64..=u64::MAX,
            len in 0usize..=6,
            tags_seed in 0u64..=u64::MAX,
            last in 0u64..=u64::MAX,
        ) {
            let mut gen = SplitMix64::new(tags_seed);
            let tags: Vec<u64> = (0..len).map(|_| gen.next_u64()).collect();
            let mut longer = tags.clone();
            longer.push(last);
            prop_assert_eq!(
                derive_step(derive_seed(base, &tags), last),
                derive_seed(base, &longer)
            );
        }
    }

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_seed_depends_on_tags_and_order() {
        let base = 42;
        assert_eq!(derive_seed(base, &[1, 2]), derive_seed(base, &[1, 2]));
        assert_ne!(derive_seed(base, &[1, 2]), derive_seed(base, &[2, 1]));
        assert_ne!(derive_seed(base, &[1]), derive_seed(base, &[1, 0]));
        assert_ne!(derive_seed(base, &[]), derive_seed(base + 1, &[]));
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values for seed 0 (from the published algorithm).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn stream_is_roughly_balanced() {
        let mut g = SplitMix64::new(7);
        let ones: u32 = (0..1000).map(|_| g.next_u64().count_ones()).sum();
        // 64,000 bits; expect ~32,000 ones. Allow wide slack.
        assert!((28_000..36_000).contains(&ones), "ones = {ones}");
    }
}

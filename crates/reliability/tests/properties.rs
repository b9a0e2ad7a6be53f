//! Property-based tests for the reliability substrate.

use linalg::Rng64;
use proptest::prelude::*;
use reliability::bitflip::{flip_stored_bits, StoredBits};
use reliability::imbalance::{class_counts, imbalanced_indices, ImbalanceSpec};
use reliability::noise::flip_labels;

proptest! {
    #[test]
    fn bitflip_count_within_binomial_envelope(seed in any::<u64>(), words in 100usize..5000) {
        let mut params = vec![1.0f32; words];
        let mut rng = Rng64::seed_from(seed);
        let p = 1e-2;
        let report = flip_stored_bits([vec![StoredBits::F32(&mut params)]], p, &mut rng);
        let n_bits = (words * 32) as f64;
        let expected = n_bits * p;
        let std = (n_bits * p * (1.0 - p)).sqrt();
        prop_assert!(
            (report.flipped as f64 - expected).abs() < 6.0 * std + 5.0,
            "flips {} vs expected {expected}",
            report.flipped
        );
        prop_assert_eq!(report.words, words);
    }

    #[test]
    fn bitflip_zero_probability_never_changes(seed in any::<u64>(), words in 0usize..200) {
        let mut params = vec![2.5f32; words];
        let mut rng = Rng64::seed_from(seed);
        let report = flip_stored_bits([vec![StoredBits::F32(&mut params)]], 0.0, &mut rng);
        prop_assert_eq!(report.flipped, 0);
        prop_assert!(params.iter().all(|&p| p == 2.5));
    }

    #[test]
    fn imbalance_never_touches_target_class(
        seed in any::<u64>(),
        r in 0.0f64..1.0,
        target in 0usize..3,
    ) {
        let labels: Vec<usize> = (0..120).map(|i| i % 3).collect();
        let mut rng = Rng64::seed_from(seed);
        let kept = imbalanced_indices(&labels, ImbalanceSpec::from_reduction(target, r), &mut rng);
        let kept_labels: Vec<usize> = kept.iter().map(|&i| labels[i]).collect();
        let counts = class_counts(&kept_labels);
        prop_assert_eq!(counts[target], 40, "target class must stay intact");
    }

    #[test]
    fn imbalance_kept_fraction_tracks_spec(seed in any::<u64>(), keep in 0.05f64..1.0) {
        let labels: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let mut rng = Rng64::seed_from(seed);
        let kept = imbalanced_indices(&labels, ImbalanceSpec::new(0, keep), &mut rng);
        let kept_labels: Vec<usize> = kept.iter().map(|&i| labels[i]).collect();
        let counts = class_counts(&kept_labels);
        let want = (keep * 100.0).ceil() as usize;
        prop_assert!(counts[1] >= want.saturating_sub(1) && counts[1] <= want + 1);
    }

    #[test]
    fn imbalance_indices_are_valid_and_unique(seed in any::<u64>(), r in 0.0f64..1.0) {
        let labels: Vec<usize> = (0..90).map(|i| (i * 7) % 3).collect();
        let mut rng = Rng64::seed_from(seed);
        let kept = imbalanced_indices(&labels, ImbalanceSpec::from_reduction(1, r), &mut rng);
        let mut sorted = kept.clone();
        sorted.dedup();
        prop_assert_eq!(&kept, &sorted, "sorted unique indices");
        prop_assert!(kept.iter().all(|&i| i < labels.len()));
    }

    #[test]
    fn label_flips_stay_in_range(seed in any::<u64>(), p in 0.0f64..1.0, classes in 2usize..6) {
        let mut labels: Vec<usize> = (0..150).map(|i| i % classes).collect();
        let original = labels.clone();
        let mut rng = Rng64::seed_from(seed);
        let changed = flip_labels(&mut labels, classes, p, &mut rng);
        prop_assert!(labels.iter().all(|&y| y < classes));
        let actually_different = labels.iter().zip(&original).filter(|(a, b)| a != b).count();
        prop_assert_eq!(changed, actually_different, "flips always move to a different class");
    }
}

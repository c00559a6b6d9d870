//! Spec-grammar round-trip property: for every row of the scheme table
//! under randomized values of its keys, `Scheme::parse` accepts the spec,
//! `Scheme::spec` writes it back unchanged, and the scheme name is
//! case-insensitive. Catches spec-grammar drift at the registry level,
//! before it can surface in CLI integration tests.

use proptest::prelude::*;
use reorderlab_core::{Scheme, SchemeError, SCHEMES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn spec_round_trips_for_every_variant(
        row in 0..SCHEMES.len(),
        seed in 0u64..1_000_000,
        count in 1usize..512,
        k_milli in 1u64..1001,
    ) {
        let def = &SCHEMES[row];
        let value = |key: &str| match key {
            "seed" => seed.to_string(),
            "k_frac" => (k_milli as f64 / 1000.0).to_string(),
            _ => count.to_string(),
        };
        let params: Vec<String> = def.keys.iter().map(|k| format!("{k}={}", value(k))).collect();
        let spec =
            if params.is_empty() { def.spec.to_string() } else { format!("{}:{}", def.spec, params.join(",")) };
        let parsed = Scheme::parse(&spec);
        prop_assert!(parsed.is_ok(), "spec {:?} failed to parse: {:?}", spec, parsed);
        let scheme = parsed.unwrap();
        prop_assert_eq!(scheme.spec(), spec.clone(), "spec {:?} did not round-trip", spec);

        // Scheme names are case-insensitive (parameter keys are not).
        let upper = match spec.split_once(':') {
            Some((name, params)) => format!("{}:{}", name.to_uppercase(), params),
            None => spec.to_uppercase(),
        };
        prop_assert_eq!(
            Scheme::parse(&upper).unwrap(),
            scheme,
            "uppercased name {:?} did not round-trip",
            upper
        );
    }
}

/// The non-randomized sweep: every suite parameterization round-trips, and
/// every canonical accepted name parses to a scheme whose spec starts with
/// that name.
#[test]
fn every_suite_scheme_and_accepted_name_round_trips() {
    for seed in [0, 7, 42] {
        for scheme in Scheme::all_schemes(seed) {
            let spec = scheme.spec();
            let parsed =
                Scheme::parse(&spec).unwrap_or_else(|e| panic!("{spec:?} failed to re-parse: {e}"));
            assert_eq!(parsed, scheme, "spec {spec:?} did not round-trip");
        }
    }
    for name in SCHEMES.iter().map(|d| d.spec) {
        let scheme =
            Scheme::parse(name).unwrap_or_else(|e| panic!("accepted name {name:?} rejected: {e}"));
        let head = scheme.spec();
        let head = head.split(':').next().unwrap_or("");
        assert_eq!(head, name, "canonical name must be its own spec head");
    }
}

/// Thread count is no part of a scheme's identity: the Grappolo variants
/// are parameterless, so a width in the spec is rejected like any other
/// stray parameter rather than accepted and ignored.
#[test]
fn thread_counts_are_rejected_in_specs() {
    for spec in ["grappolo:threads=2", "grappolo-rcm:threads=1"] {
        assert!(
            matches!(
                Scheme::parse(spec),
                Err(SchemeError::UnknownParameter { ref key, .. }) if key == "threads"
            ),
            "{spec:?} must be rejected as an unknown parameter, got {:?}",
            Scheme::parse(spec)
        );
    }
    assert!(matches!(Scheme::parse("grappolo:4"), Err(SchemeError::UnexpectedParameter { .. })));
}

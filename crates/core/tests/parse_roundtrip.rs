//! Spec-grammar round-trip property: `Scheme::parse(s.spec()) == s` for
//! every registry variant under randomized parameters, plus
//! case-insensitivity of the scheme name. Catches spec-grammar drift at the
//! registry level, before it can surface in CLI integration tests.

use proptest::prelude::*;
use reorderlab_core::schemes::DegreeDirection;
use reorderlab_core::{Scheme, SchemeError};

/// One scheme per registry variant, parameterized from the generated
/// values. `slot` indexes the same 22-variant enumeration as
/// `Scheme::all_schemes`, so new variants extend the range (and the
/// `all_schemes_covers_every_variant` registry test keeps the count
/// honest).
fn scheme_from(slot: usize, seed: u64, window: usize, parts: usize, k_milli: u64) -> Scheme {
    match slot {
        0 => Scheme::Natural,
        1 => Scheme::Random { seed },
        2 => Scheme::DegreeSort { direction: DegreeDirection::Decreasing },
        3 => Scheme::DegreeSort { direction: DegreeDirection::Increasing },
        4 => Scheme::HubSort,
        5 => Scheme::HubCluster,
        6 => Scheme::SlashBurn { k_frac: k_milli as f64 / 1000.0 },
        7 => Scheme::Gorder { window },
        8 => Scheme::Rcm,
        9 => Scheme::Cdfs,
        10 => Scheme::NestedDissection { seed },
        11 => Scheme::Metis { parts, seed },
        12 => Scheme::Grappolo,
        13 => Scheme::GrappoloRcm,
        14 => Scheme::RabbitOrder,
        15 => Scheme::Dbg,
        16 => Scheme::HubSortDbg,
        17 => Scheme::HubClusterDbg,
        18 => Scheme::CommunityBfs,
        19 => Scheme::CommunityDfs,
        20 => Scheme::CommunityDegree,
        _ => Scheme::Adaptive,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn spec_round_trips_for_every_variant(
        slot in 0usize..22,
        seed in 0u64..1_000_000,
        window in 1usize..100,
        parts in 1usize..512,
        k_milli in 1u64..1001,
    ) {
        let scheme = scheme_from(slot, seed, window, parts, k_milli);
        let spec = scheme.spec();
        let parsed = Scheme::parse(&spec);
        prop_assert!(parsed.is_ok(), "spec {:?} failed to parse: {:?}", spec, parsed);
        prop_assert_eq!(parsed.unwrap(), scheme.clone(), "spec {:?} did not round-trip", spec);

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
    for name in Scheme::ACCEPTED_NAMES {
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

//! Scheme-spec handling shared by every frontend.
//!
//! The grammar lives in [`Scheme::parse`]: `name[:key=val,...]` — e.g.
//! `rcm`, `random:7`, `metis:parts=64,seed=3`, `gorder:window=10`,
//! `slashburn:k_frac=0.01` — with single positional parameters accepted
//! for back-compatibility (`random:7`, `metis:64`). This module adds the
//! human help text, the [`OpError`] mapping, and the manifest-seed rule.

use crate::error::OpError;
use reorderlab_core::Scheme;

/// One-line help text listing every accepted scheme spelling.
pub fn scheme_help() -> String {
    [
        "  natural                   input order",
        "  random[:seed=S]           uniform shuffle",
        "  degree                    degree sort, decreasing",
        "  degree-asc                degree sort, increasing",
        "  hubsort                   hubs first, sorted [38]",
        "  hubcluster                hubs first, natural order [2]",
        "  slashburn[:k_frac=F]      iterative hub slashing [21] (default 0.005)",
        "  gorder[:window=W]         windowed Gscore greedy [37] (default 5)",
        "  rcm                       Reverse Cuthill-McKee [9]",
        "  cdfs                      Children-DFS (RCM without degree sort) [3]",
        "  nd[:seed=S]               nested dissection [15,23]",
        "  metis[:parts=P,seed=S]    partition-induced order [22] (default 32 parts)",
        "  grappolo                  community-contiguous (parallel Louvain) [28]",
        "  grappolo-rcm              communities ordered by RCM (this paper)",
        "  rabbit                    incremental-aggregation communities [1]",
        "  dbg                       degree-based grouping, log2 buckets",
        "  hubsort-dbg               DBG with hubs degree-sorted in-bucket",
        "  hubcluster-dbg            DBG hot buckets + natural cold block",
        "  comm-bfs                  Louvain communities, BFS within each",
        "  comm-dfs                  Louvain communities, DFS within each",
        "  comm-degree               Louvain communities, degree-sorted within",
        "  adaptive                  picks a scheme from structural features",
        "",
        "  single positional values keep working: random:7, metis:64,",
        "  gorder:10, slashburn:0.01, nd:3",
    ]
    .join("\n")
}

/// Parses a scheme spec via [`Scheme::parse`], mapping failures onto
/// [`OpError::Scheme`] (exit code 2 / status `"scheme"`).
///
/// # Errors
///
/// [`OpError::Scheme`] wrapping the registry's typed
/// [`SchemeError`](reorderlab_core::SchemeError).
pub fn parse_scheme(spec: &str) -> Result<Scheme, OpError> {
    Scheme::parse(spec).map_err(OpError::from)
}

/// The seed a scheme's manifest should report: the scheme's own seed
/// parameter where it has one, otherwise the frontend-wide default of 42.
pub fn scheme_seed(scheme: &Scheme) -> u64 {
    match *scheme {
        Scheme::Random { seed }
        | Scheme::NestedDissection { seed }
        | Scheme::Metis { seed, .. } => seed,
        _ => 42,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_names_and_parameters() {
        assert_eq!(parse_scheme("rcm").unwrap(), Scheme::Rcm);
        assert_eq!(parse_scheme("random:7").unwrap(), Scheme::Random { seed: 7 });
        assert_eq!(
            parse_scheme("metis:parts=16,seed=9").unwrap(),
            Scheme::Metis { parts: 16, seed: 9 }
        );
    }

    #[test]
    fn failures_carry_exit_code_two_and_list_accepted_names() {
        let err = parse_scheme("nope").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("accepted schemes:"), "{msg}");
        for name in Scheme::ACCEPTED_NAMES {
            assert!(msg.contains(name), "error must list {name}: {msg}");
        }
    }

    #[test]
    fn help_mentions_every_scheme() {
        let help = scheme_help();
        for name in Scheme::ACCEPTED_NAMES {
            assert!(help.contains(name), "help missing {name}");
        }
    }

    #[test]
    fn seed_rule_matches_the_manifest_contract() {
        assert_eq!(scheme_seed(&Scheme::Rcm), 42);
        assert_eq!(scheme_seed(&Scheme::Random { seed: 7 }), 7);
        assert_eq!(scheme_seed(&Scheme::Metis { parts: 8, seed: 9 }), 9);
        assert_eq!(scheme_seed(&Scheme::NestedDissection { seed: 3 }), 3);
    }
}

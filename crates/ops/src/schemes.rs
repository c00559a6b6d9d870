//! The human help text for scheme specs, one line per row of
//! [`SCHEMES`]; the grammar is [`Scheme::parse`](reorderlab_core::Scheme::parse)'s.

use reorderlab_core::SCHEMES;

/// Help text listing every scheme: its spelling with a placeholder per
/// parameter, its description and, where it takes parameters, the
/// defaults its row holds.
pub fn scheme_help() -> String {
    let mut lines: Vec<String> = SCHEMES
        .iter()
        .map(|def| {
            if def.keys.is_empty() {
                return format!("  {:<26}{}", def.spec, def.help);
            }
            let slots: Vec<String> =
                def.keys.iter().map(|k| format!("{k}={}", k[..1].to_ascii_uppercase())).collect();
            let usage = format!("{}[:{}]", def.spec, slots.join(","));
            let spec = def.default.spec();
            let defaults = spec.split_once(':').map_or("", |(_, params)| params);
            format!("  {usage:<26}{} (default {defaults})", def.help)
        })
        .collect();
    lines.push("\n  single positional values keep working: random:7, metis:64,".into());
    lines.push("  gorder:10, slashburn:0.01, nd:3".into());
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_mentions_every_scheme() {
        let help = scheme_help();
        for def in SCHEMES {
            assert!(help.contains(def.spec), "help missing {}", def.spec);
        }
        assert!(help.contains(
            "metis[:parts=P,seed=S]    partition-induced order [22] (default parts=32,seed=42)"
        ));
    }
}

//! `compare A.json B.json`: two stored results side by side. It refuses two
//! files that did different work: another workload, another mode, or graphs
//! with other digests, so that a change to `reorderlab-datasets` cannot
//! silently change what is measured.

use reorderlab_trace::Json;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not a result file: {e}"))
}

/// Why two results cannot be compared, if they cannot.
pub fn refusal(a: &Json, b: &Json) -> Option<String> {
    for key in ["workload", "trace", "smoke", "seconds", "digests"] {
        let (x, y) = (a.get(key), b.get(key));
        if x.is_none() || x != y {
            let show = |v: Option<&Json>| v.map_or("nothing".to_string(), Json::to_line);
            return Some(format!("{key} differs: {} against {}", show(x), show(y)));
        }
    }
    None
}

pub fn main(paths: &[String]) -> ExitCode {
    let [a_path, b_path] = paths else {
        eprintln!("usage: compare A.json B.json");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = refusal(&a, &b) {
        eprintln!("refusing to compare: {why}");
        return ExitCode::from(2);
    }
    println!("{:<44} {:<6} {:>16} {:>16} {:>9}", "metric", "unit", "A", "B", "B/A - 1");
    let metrics = |doc: &Json| {
        doc.get("metrics").and_then(Json::as_obj).map(<[_]>::to_vec).unwrap_or_default()
    };
    for (name, m) in metrics(&a) {
        let value = |m: &Json| m.get("value").and_then(Json::as_f64);
        let (Some(x), Some(y)) =
            (value(&m), b.get("metrics").and_then(|o| o.get(&name)).and_then(value))
        else {
            continue;
        };
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let change =
            if x == 0.0 { "-".to_string() } else { format!("{:+.2}%", 100.0 * (y / x - 1.0)) };
        println!("{name:<44} {unit:<6} {x:>16.6} {y:>16.6} {change:>9}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, social: &str) -> Json {
        Json::parse(&format!(
            "{{\"workload\":\"{workload}\",\"seed\":42,\"seconds\":18,\"trace\":false,\"smoke\":false,\
             \"digests\":{{\"social\":\"{social}\",\"road\":\"00ff\"}},\"metrics\":{{}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn other_digests_or_another_workload_are_refused() {
        let a = result("kernel_flat", "abcd");
        assert_eq!(refusal(&a, &result("kernel_flat", "abcd")), None);
        assert!(refusal(&a, &result("kernel_flat", "abce")).unwrap().contains("digests"));
        assert!(refusal(&a, &result("kernel_csrz", "abcd")).unwrap().contains("workload"));
        assert!(refusal(&a, &Json::parse("{}").unwrap()).is_some());
    }
}

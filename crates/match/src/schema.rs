//! Schema matching (paper §2: "we assume that schemas have been aligned"
//! — the alignment itself is done by the DeepER demo system \[43\] using
//! standard techniques; this module provides one).
//!
//! Given the column names and a row sample from both tables, each
//! `(local column, hidden column)` pair is scored by a blend of
//!
//! * **name similarity** — token-set Jaccard over the column names after
//!   splitting camelCase/snake_case ("business_name" vs "Name" share
//!   "name"), falling back to normalized edit distance for opaque names;
//! * **value overlap** — Jaccard of the token sets of the sampled column
//!   values (two "city" columns share their city names even when the
//!   headers say `loc` and `municipality`).
//!
//! Pairs are then assigned greedily by descending score above a threshold,
//! each column used at most once — the classic instance-based matcher.

use std::collections::HashSet;

/// One aligned column pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaMatch {
    /// Column index in the local table.
    pub local_col: usize,
    /// Column index in the hidden table.
    pub hidden_col: usize,
    /// Blended similarity score in [0, 1].
    pub score: f64,
}

/// Splits an identifier into lowercase word tokens ("businessName_2" →
/// {"business", "name", "2"}).
fn name_tokens(name: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    for c in name.chars() {
        if c.is_alphanumeric() {
            if c.is_uppercase() && prev_lower && !cur.is_empty() {
                out.insert(std::mem::take(&mut cur));
            }
            prev_lower = c.is_lowercase() || c.is_numeric();
            cur.extend(c.to_lowercase());
        } else {
            if !cur.is_empty() {
                out.insert(std::mem::take(&mut cur));
            }
            prev_lower = false;
        }
    }
    if !cur.is_empty() {
        out.insert(cur);
    }
    out
}

fn jaccard_sets(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

fn name_similarity(a: &str, b: &str) -> f64 {
    let (ta, tb) = (name_tokens(a), name_tokens(b));
    let token_sim = jaccard_sets(&ta, &tb);
    if token_sim > 0.0 {
        return token_sim;
    }
    // Opaque names: normalized Levenshtein.
    let (la, lb) = (a.to_lowercase(), b.to_lowercase());
    let d = smartcrawl_text::similarity::levenshtein(&la, &lb);
    let max = la.chars().count().max(lb.chars().count()).max(1);
    1.0 - d as f64 / max as f64
}

/// Token set of a column's sampled values.
fn value_tokens(rows: &[Vec<String>], col: usize, cap: usize) -> HashSet<String> {
    let mut out = HashSet::new();
    for row in rows.iter().take(cap) {
        if let Some(v) = row.get(col) {
            for t in v.split(|c: char| !c.is_alphanumeric()) {
                if !t.is_empty() {
                    out.insert(t.to_lowercase());
                }
            }
        }
    }
    out
}

/// Matches two schemas from their headers and row samples. Returns the
/// greedy one-to-one alignment with scores ≥ `threshold`, ordered by
/// descending score.
pub fn match_schemas(
    local_header: &[String],
    local_rows: &[Vec<String>],
    hidden_header: &[String],
    hidden_rows: &[Vec<String>],
    threshold: f64,
) -> Vec<SchemaMatch> {
    const SAMPLE_CAP: usize = 200;
    let local_values: Vec<HashSet<String>> = (0..local_header.len())
        .map(|c| value_tokens(local_rows, c, SAMPLE_CAP))
        .collect();
    let hidden_values: Vec<HashSet<String>> = (0..hidden_header.len())
        .map(|c| value_tokens(hidden_rows, c, SAMPLE_CAP))
        .collect();

    let mut candidates: Vec<SchemaMatch> = Vec::new();
    for (li, lname) in local_header.iter().enumerate() {
        for (hi, hname) in hidden_header.iter().enumerate() {
            let names = name_similarity(lname, hname);
            let values = jaccard_sets(&local_values[li], &hidden_values[hi]);
            let score = 0.4 * names + 0.6 * values;
            if score >= threshold {
                candidates.push(SchemaMatch { local_col: li, hidden_col: hi, score });
            }
        }
    }
    candidates.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.local_col.cmp(&b.local_col))
            .then(a.hidden_col.cmp(&b.hidden_col))
    });
    let mut used_local = vec![false; local_header.len()];
    let mut used_hidden = vec![false; hidden_header.len()];
    let mut out = Vec::new();
    for c in candidates {
        if !used_local[c.local_col] && !used_hidden[c.hidden_col] {
            used_local[c.local_col] = true;
            used_hidden[c.hidden_col] = true;
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[&[&str]]) -> Vec<Vec<String>> {
        data.iter().map(|r| r.iter().map(|s| s.to_string()).collect()).collect()
    }

    #[test]
    fn name_tokens_split_styles() {
        let t = name_tokens("businessName_id2");
        assert!(t.contains("business"));
        assert!(t.contains("name"));
        assert!(t.contains("id2") || (t.contains("id") && t.contains("2")), "{t:?}");
    }

    #[test]
    fn aligns_by_header_names() {
        let m = match_schemas(
            &["name".into(), "city".into()],
            &rows(&[&["a b", "x"]]),
            &["business_name".into(), "city".into(), "rating".into()],
            &rows(&[&["c d", "y", "4.5"]]),
            0.2,
        );
        let pairs: Vec<(usize, usize)> =
            m.iter().map(|x| (x.local_col, x.hidden_col)).collect();
        assert!(pairs.contains(&(0, 0)), "{m:?}");
        assert!(pairs.contains(&(1, 1)), "{m:?}");
    }

    #[test]
    fn aligns_by_values_when_names_are_opaque() {
        // Headers share nothing, but the value distributions do.
        let m = match_schemas(
            &["c1".into(), "c2".into()],
            &rows(&[
                &["thai noodle house", "phoenix"],
                &["jade palace", "tucson"],
                &["lotus of siam", "phoenix"],
            ]),
            &["colA".into(), "colB".into()],
            &rows(&[
                &["phoenix", "thai noodle house"],
                &["tucson", "jade palace"],
                &["mesa", "golden grill"],
            ]),
            0.2,
        );
        let pairs: Vec<(usize, usize)> =
            m.iter().map(|x| (x.local_col, x.hidden_col)).collect();
        assert!(pairs.contains(&(0, 1)), "name column should cross-align: {m:?}");
        assert!(pairs.contains(&(1, 0)), "city column should cross-align: {m:?}");
    }

    #[test]
    fn assignment_is_one_to_one() {
        let m = match_schemas(
            &["name".into(), "title".into()],
            &rows(&[&["x", "x"]]),
            &["name".into()],
            &rows(&[&["x"]]),
            0.1,
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].hidden_col, 0);
    }

    #[test]
    fn threshold_filters_weak_pairs() {
        let m = match_schemas(
            &["alpha".into()],
            &rows(&[&["one two"]]),
            &["zzz".into()],
            &rows(&[&["three four"]]),
            0.5,
        );
        assert!(m.is_empty());
    }

    #[test]
    fn scores_are_sorted_descending() {
        let m = match_schemas(
            &["name".into(), "city".into()],
            &rows(&[&["a", "phoenix"]]),
            &["name".into(), "city".into()],
            &rows(&[&["a", "phoenix"]]),
            0.1,
        );
        assert!(m.windows(2).all(|w| w[0].score >= w[1].score));
    }
}

//! The one list of figure ids: what `stats figures` accepts on its
//! command line and what it renders, in the paper's order.

use crate::pipeline::Scale;

/// Renders a section at an input scale; the second argument is Fig. 16's
/// run count, which only `fig16` reads.
pub type Render = fn(Scale, usize) -> String;

/// How many leading [`FIGURES`] are the paper's evaluation (§V): they
/// render when no id, or `all`, is given; the extensions after them
/// render only when named.
pub const PAPER_SECTIONS: usize = 10;

/// Every section by id, the paper's in §V order first.
pub const FIGURES: [(&str, Render); 12] = [
    ("table1", |scale, _| crate::table1::render(scale)),
    ("fig09", |scale, _| crate::fig09::render(scale)),
    ("fig10", |scale, _| crate::fig10::render(scale)),
    ("fig11", |scale, _| crate::fig11::render(scale)),
    ("fig12", |scale, _| crate::fig12::render(scale)),
    ("fig13", |scale, _| crate::fig13::render(scale)),
    ("fig14", |scale, _| crate::fig14::render(scale)),
    ("fig15", |scale, _| crate::fig15::render(scale)),
    ("table2", |scale, _| {
        crate::table2::render(scale) + &crate::table2::render_cpi(scale)
    }),
    ("fig16", crate::fig16::render),
    ("ablations", |scale, _| crate::ablations::render(scale)),
    ("scaling", |_, _| crate::scaling::render()),
];

/// The sections `ids` asks for, in table order and each once: the
/// paper's when `ids` is empty or contains `all`, plus every other id
/// it names.
///
/// # Errors
///
/// The first id that is neither `all` nor in [`FIGURES`], with the list
/// of valid ones.
pub fn select(ids: &[String]) -> Result<Vec<(&'static str, Render)>, String> {
    let named = |id: &str| ids.iter().any(|i| i == id);
    if let Some(bad) = ids
        .iter()
        .find(|i| *i != "all" && !FIGURES.iter().any(|(id, _)| id == i))
    {
        let valid = FIGURES.map(|(id, _)| id);
        return Err(format!(
            "unknown figure id {bad:?}; choose `all` or any of {valid:?}"
        ));
    }
    let all = ids.is_empty() || named("all");
    Ok(FIGURES
        .iter()
        .enumerate()
        .filter(|(i, (id, _))| (all && *i < PAPER_SECTIONS) || named(id))
        .map(|(_, figure)| *figure)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selected(ids: &str) -> Vec<&'static str> {
        let ids: Vec<String> = ids.split_whitespace().map(str::to_string).collect();
        select(&ids)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn selection_follows_the_table() {
        let paper = &FIGURES.map(|(id, _)| id)[..PAPER_SECTIONS];
        assert_eq!(selected(""), paper);
        assert_eq!(selected("all"), paper);
        // Named extensions ride along with `all`; repeats render once, and
        // the table, not the command line, fixes the order.
        assert_eq!(selected("all ablations").len(), PAPER_SECTIONS + 1);
        assert_eq!(selected("fig10 fig09 fig10"), ["fig09", "fig10"]);
        assert_eq!(selected("scaling"), ["scaling"]);
        let err = select(&["fig09".into(), "bogus".into()]).unwrap_err();
        assert!(err.contains("\"bogus\"") && err.contains("fig16"), "{err}");
    }

    #[test]
    fn every_id_renders_its_section_header() {
        let headers: [&[&str]; 12] = [
            &["Table I:"],
            &["Fig. 9:"],
            &["Fig. 10:"],
            &["Fig. 11:"],
            &["Fig. 12a:", "Fig. 12b:"],
            &["Fig. 13a:", "Fig. 13b:"],
            &["Fig. 14:"],
            &["Fig. 15:"],
            &["Table II:", "Table II (derived):"],
            &["Fig. 16:"],
            &["Ablation: synchronization cost factor"],
            &["Scaling with input size", "Scaling with core count"],
        ];
        for ((id, render), needles) in FIGURES.into_iter().zip(headers) {
            let out = render(Scale(0.05), 3);
            for needle in needles {
                assert!(out.contains(needle), "{id}: missing section {needle}");
            }
        }
    }
}

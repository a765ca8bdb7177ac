//! Batch job files.
//!
//! `sbreak batch` consumes a small TOML subset — enough to express a
//! reproduction batch without pulling a TOML dependency into the tree:
//!
//! ```toml
//! # Comments start with '#'.
//! [defaults]            # optional; keys apply to every job below
//! graph = "gen:lp1"
//! scale = 0.2
//! seed = 42
//!
//! [[job]]               # one table per job
//! label = "mm-rand"     # optional; defaults to job1, job2, ...
//! problem = "mm"        # mm | color | mis
//! algo = "rand:10"      # baseline | bridge | rand[:P] | degk[:K] | bicc
//! arch = "cpu"          # cpu | gpu (default cpu)
//! frontier = "compact"  # dense | compact (default compact)
//! threads = 4           # optional per-job pool pin
//! timeout_ms = 60000    # optional time budget
//! graph_seed = 7        # optional; generation seed (defaults to seed)
//! ```
//!
//! Unknown keys and sections are hard errors with `file:line:` positions,
//! so a typo fails the batch instead of silently running defaults.

use sb_core::common::{Arch, FrontierMode};
use sb_core::solver::Solver;
use std::collections::HashMap;

/// One fully-resolved job: everything the engine needs to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique, filename-safe job name (used for trace and output files).
    pub label: String,
    /// Graph source string (`gen:<name>` or a path).
    pub graph: String,
    /// Scale factor for generated graphs.
    pub scale: f64,
    /// Generation seed for `gen:` sources; defaults to the solver seed.
    pub graph_seed: Option<u64>,
    /// Problem × algorithm.
    pub solver: Solver,
    /// Execution architecture.
    pub arch: Arch,
    /// Frontier representation.
    pub frontier: FrontierMode,
    /// Solver seed.
    pub seed: u64,
    /// Per-job thread-pool pin.
    pub threads: Option<usize>,
    /// Per-job time budget in milliseconds: once it passes, the job stops
    /// at its next round check.
    pub timeout_ms: Option<u64>,
}

impl JobSpec {
    /// The seed used to *generate* the graph (distinct from the solver
    /// seed so one graph can be solved at many seeds).
    pub fn effective_graph_seed(&self) -> u64 {
        self.graph_seed.unwrap_or(self.seed)
    }
}

/// Strip a `#` comment, ignoring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Unwrap a value token: `"quoted"` strings or bare scalars.
fn parse_value(raw: &str) -> Result<String, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err("missing value".into());
    }
    if let Some(inner) = raw.strip_prefix('"') {
        let Some(inner) = inner.strip_suffix('"') else {
            return Err(format!("unterminated string {raw}"));
        };
        if inner.contains('"') {
            return Err(format!("stray quote inside {raw}"));
        }
        Ok(inner.to_string())
    } else if raw.contains('"') {
        Err(format!("stray quote in value {raw}"))
    } else {
        Ok(raw.to_string())
    }
}

const JOB_KEYS: &[&str] = &[
    "label",
    "graph",
    "scale",
    "graph_seed",
    "problem",
    "algo",
    "arch",
    "frontier",
    "seed",
    "threads",
    "timeout_ms",
];

fn label_is_safe(label: &str) -> bool {
    !label.is_empty()
        && label
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Parse a jobs file. `file` names the source in diagnostics
/// (`file:line: message`).
pub fn parse_jobs(text: &str, file: &str) -> Result<Vec<JobSpec>, String> {
    enum Section {
        Preamble,
        Defaults,
        Job,
    }
    let mut section = Section::Preamble;
    let mut defaults: HashMap<String, String> = HashMap::new();
    // (table, line-of-each-key, header line) per [[job]], so resolution
    // errors can point at the offending line.
    type RawJob = (HashMap<String, String>, HashMap<String, usize>, usize);
    let mut raw_jobs: Vec<RawJob> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("{file}:{lineno}: {msg}");
        if line.starts_with('[') {
            match line {
                "[defaults]" => {
                    if !raw_jobs.is_empty() {
                        return Err(err("[defaults] must precede all [[job]] tables".into()));
                    }
                    section = Section::Defaults;
                }
                "[[job]]" => {
                    raw_jobs.push((HashMap::new(), HashMap::new(), lineno));
                    section = Section::Job;
                }
                other => {
                    return Err(err(format!(
                        "unknown section '{other}' (expected [defaults] or [[job]])"
                    )));
                }
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(format!("expected 'key = value', got '{line}'")));
        };
        let key = key.trim();
        if !JOB_KEYS.contains(&key) {
            return Err(err(format!(
                "unknown key '{key}' (known keys: {})",
                JOB_KEYS.join(", ")
            )));
        }
        let value = parse_value(value).map_err(&err)?;
        match section {
            Section::Preamble => {
                return Err(err(format!(
                    "key '{key}' outside any section (start with [defaults] or [[job]])"
                )));
            }
            Section::Defaults => {
                if key == "label" {
                    return Err(err("'label' cannot be defaulted (must be unique)".into()));
                }
                defaults.insert(key.to_string(), value);
            }
            Section::Job => {
                let (table, lines, _) = raw_jobs.last_mut().expect("in a job section");
                if table.insert(key.to_string(), value).is_some() {
                    return Err(err(format!("duplicate key '{key}' in this [[job]]")));
                }
                lines.insert(key.to_string(), lineno);
            }
        }
    }

    if raw_jobs.is_empty() {
        return Err(format!("{file}: no [[job]] tables found"));
    }

    let mut jobs = Vec::with_capacity(raw_jobs.len());
    let mut seen_labels: HashMap<String, usize> = HashMap::new();
    for (n, (table, lines, table_line)) in raw_jobs.iter().enumerate() {
        let lookup = |key: &str| table.get(key).or_else(|| defaults.get(key));
        let key_line = |key: &str| lines.get(key).copied().unwrap_or(*table_line);
        let err = |key: &str, msg: String| format!("{file}:{}: {msg}", key_line(key));

        let required = |key: &str| {
            lookup(key)
                .ok_or_else(|| format!("{file}:{table_line}: job is missing required key '{key}'"))
        };
        let parse_num = |key: &str| -> Result<Option<u64>, String> {
            lookup(key)
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| err(key, format!("'{key}' must be an integer, got '{v}'")))
                })
                .transpose()
        };

        let label = match table.get("label") {
            Some(l) => {
                if !label_is_safe(l) {
                    return Err(err(
                        "label",
                        format!("label '{l}' must be non-empty and use only [A-Za-z0-9._-]"),
                    ));
                }
                l.clone()
            }
            None => format!("job{}", n + 1),
        };
        if let Some(prev) = seen_labels.insert(label.clone(), *table_line) {
            return Err(format!(
                "{file}:{table_line}: duplicate label '{label}' (first used at line {prev})"
            ));
        }

        let graph = required("graph")?.clone();
        let problem = required("problem")?;
        let algo = required("algo")?;
        let solver = Solver::parse(problem, algo).map_err(|m| err("algo", m))?;
        let arch = lookup("arch")
            .map(|v| v.parse::<Arch>().map_err(|m| err("arch", m)))
            .transpose()?
            .unwrap_or(Arch::Cpu);
        let frontier = lookup("frontier")
            .map(|v| {
                v.parse::<FrontierMode>()
                    .map_err(|m| err("frontier", m.to_string()))
            })
            .transpose()?
            .unwrap_or_default();
        let scale = lookup("scale")
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        err(
                            "scale",
                            format!("'scale' must be a positive number, got '{v}'"),
                        )
                    })
            })
            .transpose()?
            .unwrap_or(1.0);
        let seed = parse_num("seed")?.unwrap_or(42);
        let graph_seed = parse_num("graph_seed")?;
        let threads = parse_num("threads")?
            .map(|t| {
                if t == 0 {
                    Err(err("threads", "'threads' must be positive".into()))
                } else {
                    Ok(t as usize)
                }
            })
            .transpose()?;
        let timeout_ms = parse_num("timeout_ms")?;

        jobs.push(JobSpec {
            label,
            graph,
            scale,
            graph_seed,
            solver,
            arch,
            frontier,
            seed,
            threads,
            timeout_ms,
        });
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# A reproduction batch.
[defaults]
graph = "gen:lp1"   # shared by all jobs
scale = 0.2
seed = 7

[[job]]
problem = "mm"
algo = "rand:10"

[[job]]
label = "color-degk"
problem = "color"
algo = "degk"
arch = "gpu"
frontier = "dense"
seed = 9
threads = 2
timeout_ms = 5000
"#;

    #[test]
    fn parses_defaults_and_jobs() {
        let jobs = parse_jobs(GOOD, "jobs.toml").unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].label, "job1");
        assert_eq!(jobs[0].graph, "gen:lp1");
        assert_eq!(jobs[0].scale, 0.2);
        assert_eq!(jobs[0].seed, 7);
        assert_eq!(jobs[0].solver.label(), "mm-rand:10");
        assert_eq!(jobs[0].arch, Arch::Cpu);
        assert_eq!(jobs[0].frontier, FrontierMode::Compact);
        assert_eq!(jobs[0].effective_graph_seed(), 7);

        assert_eq!(jobs[1].label, "color-degk");
        assert_eq!(jobs[1].solver.label(), "color-degk:2");
        assert_eq!(jobs[1].arch, Arch::GpuSim);
        assert_eq!(jobs[1].frontier, FrontierMode::Dense);
        assert_eq!(jobs[1].seed, 9);
        assert_eq!(jobs[1].threads, Some(2));
        assert_eq!(jobs[1].timeout_ms, Some(5000));
    }

    #[test]
    fn diagnostics_carry_file_and_line() {
        let text = "[[job]]\nproblem = \"mm\"\nalgo = \"rand\"\nbogus = 1\n";
        let e = parse_jobs(text, "j.toml").unwrap_err();
        assert!(e.starts_with("j.toml:4:"), "{e}");
        assert!(e.contains("unknown key 'bogus'"), "{e}");

        let e = parse_jobs("[[job]]\nproblem = \"mm\"\nalgo = \"rand\"\n", "j.toml").unwrap_err();
        assert!(e.contains("missing required key 'graph'"), "{e}");

        let e = parse_jobs("graph = \"gen:lp1\"\n", "j.toml").unwrap_err();
        assert!(e.contains("outside any section"), "{e}");

        let e = parse_jobs("", "j.toml").unwrap_err();
        assert!(e.contains("no [[job]] tables"), "{e}");

        let bad_algo = "[[job]]\ngraph = \"gen:lp1\"\nproblem = \"mm\"\nalgo = \"quux\"\n";
        let e = parse_jobs(bad_algo, "j.toml").unwrap_err();
        assert!(e.starts_with("j.toml:4:"), "{e}");
        assert!(e.contains("unknown algo"), "{e}");

        let bad_frontier = "[[job]]\ngraph = \"gen:lp1\"\nproblem = \"mm\"\nalgo = \"rand\"\n\
                            frontier = \"bitset\"\n";
        let e = parse_jobs(bad_frontier, "j.toml").unwrap_err();
        assert!(e.starts_with("j.toml:5:"), "{e}");
        assert!(
            e.contains("frontier mode must be dense or compact, got 'bitset'"),
            "{e}"
        );
    }

    #[test]
    fn duplicate_labels_rejected() {
        let text = "[[job]]\nlabel = \"a\"\ngraph = \"g\"\nproblem = \"mm\"\nalgo = \"bicc\"\n\
                    [[job]]\nlabel = \"a\"\ngraph = \"g\"\nproblem = \"mm\"\nalgo = \"bicc\"\n";
        let e = parse_jobs(text, "j.toml").unwrap_err();
        assert!(e.contains("duplicate label 'a'"), "{e}");
    }

    #[test]
    fn unsafe_labels_rejected() {
        let text = "[[job]]\nlabel = \"a/b\"\ngraph = \"g\"\nproblem = \"mm\"\nalgo = \"bicc\"\n";
        let e = parse_jobs(text, "j.toml").unwrap_err();
        assert!(e.contains("[A-Za-z0-9._-]"), "{e}");
    }

    #[test]
    fn comments_respect_quotes() {
        let text =
            "[[job]]\ngraph = \"data/g#1.txt\"\nproblem = \"mis\"\nalgo = \"degk:3\" # note\n";
        let jobs = parse_jobs(text, "j.toml").unwrap();
        assert_eq!(jobs[0].graph, "data/g#1.txt");
        assert_eq!(jobs[0].solver.label(), "mis-degk:3");
    }
}

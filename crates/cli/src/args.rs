//! Minimal argument parsing: `command positional... --flag value...`.

/// A parsed command line.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    /// First token (the subcommand).
    pub command: String,
    /// Positional arguments after the command.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: Vec<(String, String)>,
}

impl Parsed {
    /// Looks up a `--key` option.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Returns the positional at `index`, if present.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// Fails on any `--option` outside `accepted`, so a mistyped flag is
    /// an error rather than silently ignored.
    ///
    /// # Errors
    ///
    /// Names the first unaccepted option and lists the accepted ones.
    pub fn accept(&self, accepted: &[&str]) -> Result<(), String> {
        let Some((key, _)) = self
            .options
            .iter()
            .find(|(k, _)| !accepted.contains(&k.as_str()))
        else {
            return Ok(());
        };
        let list: Vec<String> = accepted.iter().map(|a| format!("--{a}")).collect();
        Err(format!(
            "unknown option `--{key}` for `{}` (accepted: {})",
            self.command,
            if list.is_empty() {
                "none".into()
            } else {
                list.join(", ")
            }
        ))
    }
}

/// Parses `argv` (without the program name).
///
/// # Errors
///
/// Returns a description when a `--flag` lacks its value.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut it = argv.iter().peekable();
    if let Some(cmd) = it.next() {
        parsed.command = cmd.clone();
    }
    while let Some(tok) = it.next() {
        if let Some(key) = tok.strip_prefix("--") {
            // Value-less flags (next token is another option, or nothing)
            // parse as boolean `true`.
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().expect("peeked");
                    parsed.options.push((key.to_string(), value.clone()));
                }
                _ => parsed.options.push((key.to_string(), "true".to_string())),
            }
        } else {
            parsed.positional.push(tok.clone());
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_positionals_and_options() {
        let p = parse(&argv("color star:x=1 gnm:n=10,m=20 --json out.json")).unwrap();
        assert_eq!(p.command, "color");
        assert_eq!(p.positional, vec!["star:x=1", "gnm:n=10,m=20"]);
        assert_eq!(p.option("json"), Some("out.json"));
        assert_eq!(p.option("dot"), None);
    }

    #[test]
    fn trailing_flag_parses_as_boolean() {
        let p = parse(&argv("color star gnm:n=3,m=1 --verify")).unwrap();
        assert_eq!(p.option("verify"), Some("true"));
        let p = parse(&argv("color star g --verify --json out.json")).unwrap();
        assert_eq!(p.option("verify"), Some("true"));
        assert_eq!(p.option("json"), Some("out.json"));
    }

    #[test]
    fn unaccepted_options_are_rejected() {
        let p = parse(&argv("color star g --backnd mmap")).unwrap();
        let err = p.accept(&["backend"]).unwrap_err();
        assert!(err.contains("unknown option `--backnd`"), "{err}");
        assert!(err.contains("--backend"), "{err}");
        p.accept(&["backnd"]).unwrap();
        assert!(parse(&argv("analyze g --json x"))
            .unwrap()
            .accept(&[])
            .is_err());
    }
}

//! The one flag reader behind `repro`, `pc-server` and `pc-loadgen`:
//! every flag value is parsed and range-checked here, so a bad value is
//! an error that names its flag — `"{flag} needs a value"`,
//! `"{flag}: {reason}"`, `"{flag} must be at least {min}"` or
//! `"{flag} must be between {min} and {max}"` — in every binary, never
//! a panic.

use std::fmt::Display;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Command-line arguments: iterating yields the next flag (or positional
/// argument), and the readers take that flag's value.
#[derive(Debug)]
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// Reads `args` (without the program name).
    #[must_use]
    pub fn new(args: Vec<String>) -> Self {
        Flags(args.into_iter())
    }

    /// Reads the process's arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Flags::new(std::env::args().skip(1).collect())
    }

    /// The raw value of `flag`.
    pub fn string(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value of `flag`, converted by `parse`.
    pub fn parse_with<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        parse(&self.string(flag)?).map_err(|e| format!("{flag}: {e}"))
    }

    /// The value of `flag` via [`FromStr`]; infinite and NaN floats are
    /// refused.
    pub fn value<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<T, String> {
        self.parse_with(flag, |raw| match raw.parse::<f64>() {
            Ok(x) if !x.is_finite() => Err(format!("{raw:?} is not a finite number")),
            _ => raw.parse::<T>().map_err(|e| e.to_string()),
        })
    }

    /// The value of `flag`, which must be at least `min`.
    pub fn at_least<T>(&mut self, flag: &str, min: T) -> Result<T, String>
    where
        T: FromStr<Err: Display> + PartialOrd + Display,
    {
        let value = self.value(flag)?;
        if value < min {
            return Err(format!("{flag} must be at least {min}"));
        }
        Ok(value)
    }

    /// The value of `flag`, which must lie in `min..=max`.
    pub fn within<T>(&mut self, flag: &str, min: T, max: T) -> Result<T, String>
    where
        T: FromStr<Err: Display> + PartialOrd + Display,
    {
        let value = self.value(flag)?;
        if value < min || value > max {
            return Err(format!("{flag} must be between {min} and {max}"));
        }
        Ok(value)
    }

    /// The value of `flag` as a float greater than zero.
    pub fn positive(&mut self, flag: &str) -> Result<f64, String> {
        match self.value(flag)? {
            x if x > 0.0 => Ok(x),
            x => Err(format!("{flag}: {x} is not positive")),
        }
    }

    /// The value of `flag` as seconds of wall clock, returned as given:
    /// negative spans pass (callers clamp them), spans that
    /// [`Duration::try_from_secs_f64`] refuses or that overflow a
    /// deadline counted from now do not.
    pub fn seconds(&mut self, flag: &str) -> Result<f64, String> {
        let secs: f64 = self.value(flag)?;
        let span =
            Duration::try_from_secs_f64(secs.max(0.0)).map_err(|e| format!("{flag}: {e}"))?;
        match Instant::now().checked_add(span) {
            Some(_) => Ok(secs),
            None => Err(format!("{flag}: {secs} s overflows the clock")),
        }
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn reads_flags_and_values_in_order() {
        let mut f = flags(&["--n", "7", "--x", "0.5", "pos"]);
        assert_eq!(f.next().as_deref(), Some("--n"));
        assert_eq!(f.value::<u32>("--n"), Ok(7));
        assert_eq!(f.next().as_deref(), Some("--x"));
        assert_eq!(f.positive("--x"), Ok(0.5));
        assert_eq!(f.next().as_deref(), Some("pos"));
        assert_eq!(f.next(), None);
    }

    #[test]
    fn every_error_names_the_flag() {
        assert_eq!(
            flags(&[]).string("--out"),
            Err("--out needs a value".into())
        );
        let err = flags(&["0"]).at_least("--shards", 1usize);
        assert_eq!(err, Err("--shards must be at least 1".into()));
        for raw in ["0", "9"] {
            let err = flags(&[raw]).within("--bytes", 1usize, 8);
            assert_eq!(err, Err("--bytes must be between 1 and 8".into()));
        }
        assert_eq!(flags(&["8"]).within("--bytes", 1usize, 8), Ok(8));
        let err = flags(&["0"]).positive("--scale");
        assert_eq!(err, Err("--scale: 0 is not positive".into()));
        let err = flags(&["x"]).value::<u64>("--seed").unwrap_err();
        assert!(err.starts_with("--seed: "), "{err}");
        let err = flags(&["a"]).parse_with("--op", |_| Err::<(), _>("nope"));
        assert_eq!(err, Err("--op: nope".into()));
    }

    #[test]
    fn non_finite_floats_are_refused_and_clamped_values_pass() {
        for raw in ["inf", "-inf", "NaN", "infinity", "1e400"] {
            let err = flags(&[raw]).value::<f64>("--rate").unwrap_err();
            assert!(err.starts_with("--rate: "), "{raw}: {err}");
        }
        assert_eq!(flags(&["0"]).value::<f64>("--rate"), Ok(0.0));
        assert_eq!(flags(&["-1"]).seconds("--secs"), Ok(-1.0));
        assert_eq!(flags(&["2.5"]).seconds("--secs"), Ok(2.5));
        for raw in ["1e30", "1e19", "inf", "nan"] {
            let err = flags(&[raw]).seconds("--secs").unwrap_err();
            assert!(err.starts_with("--secs: "), "{raw}: {err}");
        }
    }
}

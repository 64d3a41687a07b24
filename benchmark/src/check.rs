//! Output correctness: byte comparison against a reference rendering,
//! and a digest of every checked report so two commits can show their
//! simulated statistics are identical.

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Why a report failed its check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The bytes differ from the reference; `at` is the first differing
    /// offset.
    Bytes { at: usize },
    /// The report records failed simulations.
    Failures(usize),
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Bytes { at } => write!(f, "report differs from its reference at byte {at}"),
            Mismatch::Failures(n) => write!(f, "report records {n} failed simulation(s)"),
        }
    }
}

/// Checks a rendered campaign report: no failed simulations, and byte
/// equality with its reference.
pub fn check(report: &str, failures: usize, reference: &str) -> Result<(), Mismatch> {
    if failures > 0 {
        return Err(Mismatch::Failures(failures));
    }
    if report == reference {
        return Ok(());
    }
    let at = report
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(report.len().min(reference.len()));
    Err(Mismatch::Bytes { at })
}

/// Order-independent digest over (key, report) pairs: reports are keyed
/// by what produced them, so the digest does not depend on which client
/// or thread finished first.
#[derive(Debug, Default)]
pub struct Digest {
    entries: std::collections::BTreeMap<String, u64>,
}

impl Digest {
    pub fn add(&mut self, key: &str, report: &str) {
        self.entries
            .insert(key.to_string(), fnv64(report.as_bytes()));
    }

    pub fn value(&self) -> u64 {
        let mut joined = Vec::new();
        for (key, h) in &self.entries {
            joined.extend_from_slice(key.as_bytes());
            joined.extend_from_slice(&h.to_le_bytes());
        }
        fnv64(&joined)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_with_one_byte_changed_fails_the_check() {
        let campaign = belenos::CampaignSpec::new("tamper")
            .with_analysis(belenos::Analysis::Table2)
            .prepare()
            .expect("table2 needs no models");
        let reference = campaign.run(&belenos_runner::Runner::isolated(1)).to_json();
        assert_eq!(check(&reference, 0, &reference), Ok(()));
        assert_eq!(check(&reference, 1, &reference), Err(Mismatch::Failures(1)));
        // Change one digit of a simulated statistic.
        let mut tampered = reference.clone().into_bytes();
        let at = (tampered.len() / 2..tampered.len())
            .find(|&i| tampered[i].is_ascii_digit())
            .expect("the report holds numbers");
        tampered[at] = if tampered[at] == b'9' {
            b'8'
        } else {
            tampered[at] + 1
        };
        let tampered = String::from_utf8(tampered).expect("a digit swap keeps utf-8");
        assert_eq!(check(&tampered, 0, &reference), Err(Mismatch::Bytes { at }));
        let truncated = &reference[..reference.len() - 1];
        assert_eq!(
            check(truncated, 0, &reference),
            Err(Mismatch::Bytes {
                at: reference.len() - 1
            })
        );
    }

    #[test]
    fn digest_ignores_insertion_order_but_not_content() {
        let (mut a, mut b, mut c) = (Digest::default(), Digest::default(), Digest::default());
        a.add("x", "1");
        a.add("y", "2");
        b.add("y", "2");
        b.add("x", "1");
        c.add("x", "1");
        c.add("y", "3");
        assert_eq!(a.value(), b.value());
        assert_ne!(a.value(), c.value());
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }
}

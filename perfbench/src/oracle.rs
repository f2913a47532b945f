//! The correctness oracle. Every check compares the program's output with
//! something the benchmark knows independently: the accept mask it built
//! the batch with, the plaintext sums of the inputs it drew, and the
//! deployment's own decisions for the batch a probe re-ran.

use crate::workload::Aggregate;
use prio_field::FieldElement;

/// Collected oracle failures; a run with any failure is incorrect.
#[derive(Debug, Default)]
pub struct Oracle {
    failures: Vec<String>,
}

impl Oracle {
    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Compares a batch's decisions with the expected mask and returns how
    /// many submissions were decided wrongly.
    pub fn decisions(&mut self, what: &str, got: &[bool], expected: &[bool]) -> u64 {
        let wrong = if got.len() == expected.len() {
            got.iter().zip(expected).filter(|(g, e)| g != e).count()
        } else {
            expected.len()
        };
        self.check(wrong == 0, || {
            format!(
                "{what}: {wrong} of {} decisions differ from the expected mask",
                expected.len()
            )
        });
        wrong as u64
    }

    /// `accepted + rejected + dropped == sent`, and the accepted count is
    /// the one the expected masks give.
    pub fn ledger(
        &mut self,
        accepted: u64,
        rejected: u64,
        dropped: u64,
        sent: u64,
        expected_accepted: u64,
    ) {
        self.check(accepted + rejected + dropped == sent, || {
            format!("ledger: accepted {accepted} + rejected {rejected} + dropped {dropped} != sent {sent}")
        });
        self.check(accepted == expected_accepted, || {
            format!("ledger: accepted {accepted}, expected {expected_accepted}")
        });
    }

    /// The published aggregate equals the plaintext sum over exactly the
    /// accepted inputs, both as a vector and decoded through the AFE.
    pub fn aggregate<F: FieldElement, A: Aggregate<F>>(
        &mut self,
        afe: &A,
        sigma: &[u64],
        plain: &[u128],
        accepted: u64,
    ) {
        let raw_ok = sigma.len() == plain.len()
            && sigma.iter().zip(plain).all(|(&s, &p)| u128::from(s) == p);
        self.check(raw_ok, || {
            format!("aggregate: published sigma {sigma:?} != plaintext sums {plain:?}")
        });
        if raw_ok && accepted > 0 {
            let field: Vec<F> = sigma.iter().map(|&s| F::from_u64(s)).collect();
            if let Err(e) = afe.check_decode(&field, plain, accepted) {
                self.failures.push(format!("aggregate: {e}"));
            }
        }
    }

    /// True when no check has failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failures, in the order they were found.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_afe::sum::SumAfe;
    use prio_field::Field64;

    #[test]
    fn flipped_expected_bit_fails_the_oracle() {
        let got = vec![true, false, true, true];
        let mut expected = got.clone();
        let mut oracle = Oracle::default();
        assert_eq!(oracle.decisions("batch", &got, &expected), 0);
        assert!(oracle.passed());
        expected[2] = !expected[2];
        assert_eq!(oracle.decisions("batch", &got, &expected), 1);
        assert!(!oracle.passed());
    }

    #[test]
    fn aggregate_must_match_plaintext_and_decode() {
        let afe = SumAfe::new(8);
        let mut oracle = Oracle::default();
        oracle.aggregate::<Field64, _>(&afe, &[300], &[300], 3);
        oracle.ledger(3, 1, 0, 4, 3);
        assert!(oracle.passed(), "{:?}", oracle.failures());
        oracle.aggregate::<Field64, _>(&afe, &[301], &[300], 3);
        assert!(!oracle.passed());
        let mut ledger = Oracle::default();
        ledger.ledger(3, 0, 0, 4, 3);
        assert!(!ledger.passed());
    }
}

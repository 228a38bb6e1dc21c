//! The paper's query model (§III-B): push-based continuous aggregate
//! queries of the form
//!
//! ```sql
//! SELECT SUM(attr) FROM Sensors WHERE pred EPOCH DURATION T
//! ```
//!
//! COUNT reduces trivially to SUM (transmit 1 when the predicate holds);
//! AVG = SUM/COUNT; VARIANCE and STDDEV follow from SUM(x²), SUM(x) and
//! COUNT. A [`QueryPlan`] expands a derived aggregate into its constituent
//! SUM sub-queries, each of which runs as an independent SIES instance, and
//! a finalizer combines the verified sub-results.

use crate::error::SiesError;

/// Sensor attributes, mirroring the Intel Lab dataset's channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attribute {
    /// Temperature (the paper's experimental attribute).
    Temperature,
    /// Relative humidity.
    Humidity,
    /// Light level.
    Light,
    /// Battery voltage.
    Voltage,
}

impl Attribute {
    fn index(self) -> usize {
        match self {
            Attribute::Temperature => 0,
            Attribute::Humidity => 1,
            Attribute::Light => 2,
            Attribute::Voltage => 3,
        }
    }
}

/// One epoch's sensor reading: all attributes as scaled non-negative
/// integers (the paper encodes "other data types as positive integers via
/// simple translation and scaling").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SensorReading {
    values: [u64; 4],
}

impl SensorReading {
    /// Creates a reading with every attribute set.
    pub fn new(temperature: u64, humidity: u64, light: u64, voltage: u64) -> Self {
        SensorReading {
            values: [temperature, humidity, light, voltage],
        }
    }

    /// Creates a temperature-only reading (other attributes zero).
    pub fn temperature(value: u64) -> Self {
        SensorReading {
            values: [value, 0, 0, 0],
        }
    }

    /// The stored value of `attr`.
    pub fn get(&self, attr: Attribute) -> u64 {
        self.values[attr.index()]
    }

    /// Sets the value of `attr`.
    pub fn set(&mut self, attr: Attribute, value: u64) {
        self.values[attr.index()] = value;
    }
}

/// Comparison operators for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `attr < c`
    Lt,
    /// `attr <= c`
    Le,
    /// `attr > c`
    Gt,
    /// `attr >= c`
    Ge,
    /// `attr = c`
    Eq,
    /// `attr != c`
    Ne,
}

/// The WHERE clause: a boolean combination of attribute comparisons,
/// evaluated locally at each source. Sources whose reading fails the
/// predicate transmit 0 (paper §III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true (no WHERE clause).
    True,
    /// `attr op constant`.
    Cmp(Attribute, CmpOp, u64),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluates against a reading.
    pub fn eval(&self, reading: &SensorReading) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp(attr, op, c) => {
                let v = reading.get(*attr);
                match op {
                    CmpOp::Lt => v < *c,
                    CmpOp::Le => v <= *c,
                    CmpOp::Gt => v > *c,
                    CmpOp::Ge => v >= *c,
                    CmpOp::Eq => v == *c,
                    CmpOp::Ne => v != *c,
                }
            }
            Predicate::And(a, b) => a.eval(reading) && b.eval(reading),
            Predicate::Or(a, b) => a.eval(reading) || b.eval(reading),
            Predicate::Not(a) => !a.eval(reading),
        }
    }

    /// `a AND b` convenience constructor.
    pub fn and(a: Predicate, b: Predicate) -> Predicate {
        Predicate::And(Box::new(a), Box::new(b))
    }

    /// `a OR b` convenience constructor.
    pub fn or(a: Predicate, b: Predicate) -> Predicate {
        Predicate::Or(Box::new(a), Box::new(b))
    }
}

/// Supported aggregate functions. SUM and COUNT are primitive; the rest
/// derive from them (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Exact SUM over an attribute.
    Sum(Attribute),
    /// Number of sources satisfying the predicate.
    Count,
    /// SUM / COUNT.
    Avg(Attribute),
    /// Population variance `E[x²] − E[x]²`.
    Variance(Attribute),
    /// `√Variance`.
    StdDev(Attribute),
}

/// What a source transmits for one SUM sub-query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumTerm {
    /// The attribute value itself.
    Value(Attribute),
    /// The squared attribute value (for moments).
    ValueSquared(Attribute),
    /// The constant 1 (COUNT).
    One,
}

impl SumTerm {
    /// The value this term contributes for a reading that satisfies the
    /// predicate.
    pub fn apply(&self, reading: &SensorReading) -> u64 {
        match self {
            SumTerm::Value(a) => reading.get(*a),
            SumTerm::ValueSquared(a) => {
                let v = reading.get(*a);
                v.checked_mul(v).expect("squared value overflows u64")
            }
            SumTerm::One => 1,
        }
    }
}

/// A registered continuous query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The aggregate function.
    pub aggregate: Aggregate,
    /// The WHERE clause.
    pub predicate: Predicate,
    /// Epoch duration `T` in milliseconds (drives the epoch schedule; the
    /// simulator treats each epoch as a discrete instant, like the paper).
    pub epoch_duration_ms: u64,
}

impl Query {
    /// A `SELECT SUM(attr)` query without a WHERE clause.
    pub fn sum(attr: Attribute) -> Self {
        Query {
            aggregate: Aggregate::Sum(attr),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        }
    }

    /// Attaches a WHERE clause.
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Compiles the query into its SUM sub-queries.
    pub fn plan(&self) -> QueryPlan {
        let terms = match self.aggregate {
            Aggregate::Sum(a) => vec![SumTerm::Value(a)],
            Aggregate::Count => vec![SumTerm::One],
            Aggregate::Avg(a) => vec![SumTerm::Value(a), SumTerm::One],
            Aggregate::Variance(a) | Aggregate::StdDev(a) => {
                vec![SumTerm::ValueSquared(a), SumTerm::Value(a), SumTerm::One]
            }
        };
        QueryPlan {
            aggregate: self.aggregate,
            predicate: self.predicate.clone(),
            terms,
        }
    }
}

/// The compiled form: one SIES instance per [`SumTerm`].
#[derive(Debug, Clone)]
pub struct QueryPlan {
    aggregate: Aggregate,
    predicate: Predicate,
    terms: Vec<SumTerm>,
}

/// The finalized, verified answer of a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryResult {
    /// Exact integer result (SUM, COUNT).
    Exact(u64),
    /// Real-valued derived result (AVG, VARIANCE, STDDEV).
    Real(f64),
}

impl QueryPlan {
    /// The SUM sub-queries, in the order their results must be supplied to
    /// [`Self::finalize`].
    pub fn terms(&self) -> &[SumTerm] {
        &self.terms
    }

    /// Values a source transmits this epoch: one per sub-query, all zero
    /// when the reading fails the predicate.
    pub fn source_values(&self, reading: &SensorReading) -> Vec<u64> {
        if !self.predicate.eval(reading) {
            return vec![0; self.terms.len()];
        }
        self.terms.iter().map(|t| t.apply(reading)).collect()
    }

    /// Combines the verified sub-query SUMs into the final answer.
    ///
    /// Fails with [`SiesError::InvalidParams`] when the number of results
    /// does not match the plan, and yields `Real(f64::NAN)` for AVG-style
    /// aggregates over an empty (COUNT = 0) population.
    pub fn finalize(&self, sums: &[u64]) -> Result<QueryResult, SiesError> {
        if sums.len() != self.terms.len() {
            return Err(SiesError::InvalidParams(format!(
                "plan expects {} sub-results, got {}",
                self.terms.len(),
                sums.len()
            )));
        }
        Ok(match self.aggregate {
            Aggregate::Sum(_) | Aggregate::Count => QueryResult::Exact(sums[0]),
            Aggregate::Avg(_) => {
                let (sum, count) = (sums[0] as f64, sums[1] as f64);
                QueryResult::Real(sum / count)
            }
            Aggregate::Variance(_) | Aggregate::StdDev(_) => {
                let (sq, sum, count) = (sums[0] as f64, sums[1] as f64, sums[2] as f64);
                let mean = sum / count;
                let var = sq / count - mean * mean;
                // Guard tiny negative values from floating rounding.
                let var = var.max(0.0);
                match self.aggregate {
                    Aggregate::StdDev(_) => QueryResult::Real(var.sqrt()),
                    _ => QueryResult::Real(var),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(t: u64) -> SensorReading {
        SensorReading::new(t, 40, 300, 2700)
    }

    #[test]
    fn predicate_comparisons() {
        let r = reading(25);
        use CmpOp::*;
        assert!(Predicate::Cmp(Attribute::Temperature, Lt, 30).eval(&r));
        assert!(!Predicate::Cmp(Attribute::Temperature, Gt, 30).eval(&r));
        assert!(Predicate::Cmp(Attribute::Temperature, Ge, 25).eval(&r));
        assert!(Predicate::Cmp(Attribute::Temperature, Le, 25).eval(&r));
        assert!(Predicate::Cmp(Attribute::Temperature, Eq, 25).eval(&r));
        assert!(Predicate::Cmp(Attribute::Temperature, Ne, 24).eval(&r));
    }

    #[test]
    fn predicate_combinators() {
        let r = reading(25);
        let hot = Predicate::Cmp(Attribute::Temperature, CmpOp::Gt, 20);
        let humid = Predicate::Cmp(Attribute::Humidity, CmpOp::Gt, 50);
        assert!(Predicate::and(hot.clone(), Predicate::Not(Box::new(humid.clone()))).eval(&r));
        assert!(Predicate::or(humid.clone(), hot.clone()).eval(&r));
        assert!(!Predicate::and(hot, humid).eval(&r));
        assert!(Predicate::True.eval(&r));
    }

    #[test]
    fn sum_plan_single_term() {
        let q = Query::sum(Attribute::Temperature);
        let plan = q.plan();
        assert_eq!(plan.terms(), &[SumTerm::Value(Attribute::Temperature)]);
        assert_eq!(plan.source_values(&reading(42)), vec![42]);
        assert_eq!(plan.finalize(&[4200]).unwrap(), QueryResult::Exact(4200));
    }

    #[test]
    fn predicate_failing_source_transmits_zero() {
        let q = Query::sum(Attribute::Temperature).filter(Predicate::Cmp(
            Attribute::Temperature,
            CmpOp::Gt,
            100,
        ));
        let plan = q.plan();
        assert_eq!(plan.source_values(&reading(42)), vec![0]);
        assert_eq!(plan.source_values(&reading(200)), vec![200]);
    }

    #[test]
    fn count_plan() {
        let q = Query {
            aggregate: Aggregate::Count,
            predicate: Predicate::Cmp(Attribute::Temperature, CmpOp::Ge, 20),
            epoch_duration_ms: 500,
        };
        let plan = q.plan();
        assert_eq!(plan.source_values(&reading(25)), vec![1]);
        assert_eq!(plan.source_values(&reading(15)), vec![0]);
        assert_eq!(plan.finalize(&[17]).unwrap(), QueryResult::Exact(17));
    }

    #[test]
    fn avg_plan_combines_sum_and_count() {
        let q = Query {
            aggregate: Aggregate::Avg(Attribute::Temperature),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        };
        let plan = q.plan();
        assert_eq!(plan.terms().len(), 2);
        assert_eq!(plan.source_values(&reading(30)), vec![30, 1]);
        match plan.finalize(&[300, 10]).unwrap() {
            QueryResult::Real(v) => assert!((v - 30.0).abs() < 1e-9),
            other => panic!("expected Real, got {other:?}"),
        }
    }

    #[test]
    fn variance_and_stddev() {
        // Population {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, variance 4, stddev 2.
        let values = [2u64, 4, 4, 4, 5, 5, 7, 9];
        let q = Query {
            aggregate: Aggregate::Variance(Attribute::Temperature),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        };
        let plan = q.plan();
        let mut sums = [0u64; 3];
        for &v in &values {
            let contrib = plan.source_values(&reading(v));
            for (s, c) in sums.iter_mut().zip(&contrib) {
                *s += c;
            }
        }
        match plan.finalize(&sums).unwrap() {
            QueryResult::Real(v) => assert!((v - 4.0).abs() < 1e-9),
            other => panic!("expected Real, got {other:?}"),
        }
        let q = Query {
            aggregate: Aggregate::StdDev(Attribute::Temperature),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        };
        match q.plan().finalize(&sums).unwrap() {
            QueryResult::Real(v) => assert!((v - 2.0).abs() < 1e-9),
            other => panic!("expected Real, got {other:?}"),
        }
    }

    #[test]
    fn finalize_arity_mismatch() {
        let plan = Query::sum(Attribute::Temperature).plan();
        assert!(plan.finalize(&[1, 2]).is_err());
    }

    #[test]
    fn reading_accessors() {
        let mut r = SensorReading::default();
        r.set(Attribute::Light, 555);
        assert_eq!(r.get(Attribute::Light), 555);
        assert_eq!(r.get(Attribute::Voltage), 0);
        assert_eq!(SensorReading::temperature(9).get(Attribute::Temperature), 9);
    }
}

//! Seeded request plans: which held-out row (and which patient) each
//! request carries, and when it is due.

use linalg::Rng64;

use crate::deploy::QueryPool;

/// Marks a request without fleet routing.
pub const NO_PATIENT: u32 = u32::MAX;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Due time, seconds after the phase starts.
    pub due_s: f64,
    /// Row of the query pool.
    pub row: u32,
    /// Patient index, or [`NO_PATIENT`].
    pub patient: u32,
}

/// The seeded order in which the query pool is served.
///
/// Gateways walk a seeded permutation of the whole held-out split. The
/// fleet draws patients Zipf(s=1) over a seeded ranking and walks each
/// subject's held-out windows in a seeded order.
#[derive(Debug)]
pub struct RequestStream {
    rng: Rng64,
    gateway_order: Vec<usize>,
    cursor: usize,
    zipf_cdf: Vec<f64>,
    rank_to_patient: Vec<usize>,
    subject_orders: Vec<Vec<usize>>,
    subject_cursors: Vec<usize>,
}

impl RequestStream {
    /// A stream over `pool` seeded by `seed`.
    pub fn new(pool: &QueryPool, seed: u64) -> RequestStream {
        let mut rng = Rng64::seed_from(seed ^ 0x51_7EA4);
        let mut gateway_order: Vec<usize> = (0..pool.rows.len()).collect();
        rng.shuffle(&mut gateway_order);
        let n = pool.patients.len();
        let mut zipf_cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / (k + 1) as f64;
            zipf_cdf.push(acc);
        }
        for c in &mut zipf_cdf {
            *c /= acc;
        }
        let mut rank_to_patient: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut rank_to_patient);
        let subject_orders: Vec<Vec<usize>> = pool
            .rows_by_subject
            .iter()
            .map(|rows| {
                let mut rows = rows.clone();
                rng.shuffle(&mut rows);
                rows
            })
            .collect();
        RequestStream {
            rng,
            gateway_order,
            cursor: 0,
            zipf_cdf,
            subject_cursors: vec![0; subject_orders.len()],
            rank_to_patient,
            subject_orders,
        }
    }

    /// The most requested patient (Zipf rank 1), if the pool is a fleet.
    pub fn hot_patient(&self) -> Option<usize> {
        self.rank_to_patient.first().copied()
    }

    /// The next request's `(row, patient)`.
    pub fn next_request(&mut self) -> (u32, u32) {
        if self.zipf_cdf.is_empty() {
            let row = self.gateway_order[self.cursor % self.gateway_order.len()];
            self.cursor += 1;
            return (row as u32, NO_PATIENT);
        }
        let u = f64::from(self.rng.uniform());
        let rank = self.zipf_cdf.partition_point(|&c| c < u);
        let patient = self.rank_to_patient[rank.min(self.rank_to_patient.len() - 1)];
        (self.row_for(patient) as u32, patient as u32)
    }

    /// The next held-out row of `patient`'s subject.
    fn row_for(&mut self, patient: usize) -> usize {
        let subject = patient % self.subject_orders.len();
        let order = &self.subject_orders[subject];
        let row = order[self.subject_cursors[subject] % order.len()];
        self.subject_cursors[subject] += 1;
        row
    }

    /// `n` requests of a Poisson process at `rate`/s, conditioned on the
    /// count (`n` sorted uniform due times over `n / rate` seconds), each
    /// sent on a uniformly drawn one of `connections` connections.
    pub fn plan(&mut self, n: usize, rate: f64, connections: usize) -> Vec<Vec<Planned>> {
        let span = n as f64 / rate;
        let mut due: Vec<f64> = (0..n)
            .map(|_| f64::from(self.rng.uniform()) * span)
            .collect();
        due.sort_by(f64::total_cmp);
        let mut plans = vec![Vec::with_capacity(n / connections + 1); connections];
        for due_s in due {
            let conn = self.rng.below(connections);
            let (row, patient) = self.next_request();
            plans[conn].push(Planned {
                due_s,
                row,
                patient,
            });
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(rows: usize, patients: usize, subjects: usize) -> QueryPool {
        QueryPool {
            rows: vec![vec![0.0]; rows],
            labels: vec![0; rows],
            expected: Vec::new(),
            rows_by_subject: if patients == 0 {
                Vec::new()
            } else {
                (0..subjects)
                    .map(|s| (0..rows).filter(|r| r % subjects == s).collect())
                    .collect()
            },
            patients: (0..patients).map(|p| format!("p{p}")).collect(),
        }
    }

    #[test]
    fn gateway_stream_serves_every_row_once_per_cycle() {
        let p = pool(50, 0, 0);
        let mut s = RequestStream::new(&p, 3);
        let mut seen: Vec<u32> = (0..50).map(|_| s.next_request().0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<u32>>());
        assert!(s.hot_patient().is_none());
    }

    #[test]
    fn plans_are_seeded_sorted_and_sized() {
        let p = pool(50, 0, 0);
        let a = RequestStream::new(&p, 9).plan(1_000, 100.0, 2);
        let b = RequestStream::new(&p, 9).plan(1_000, 100.0, 2);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 1_000);
        for conn in &a {
            assert!(conn.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!(conn.iter().all(|r| r.due_s < 10.0));
        }
        assert_ne!(a, RequestStream::new(&p, 10).plan(1_000, 100.0, 2));
    }

    #[test]
    fn fleet_stream_is_zipf_and_routes_rows_to_the_patient_subject() {
        let p = pool(60, 1_000, 4);
        let mut s = RequestStream::new(&p, 5);
        let hot = s.hot_patient().unwrap();
        let mut hot_hits = 0;
        for _ in 0..20_000 {
            let (row, patient) = s.next_request();
            assert_eq!(row as usize % 4, patient as usize % 4);
            hot_hits += usize::from(patient as usize == hot);
        }
        // Rank 1 of Zipf(1) over 1,000 ids carries 1/H(1000) ~ 13.4%.
        assert!((2_300..3_100).contains(&hot_hits), "hot hits {hot_hits}");
    }
}

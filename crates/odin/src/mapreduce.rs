//! Map-reduce over distributed tables (§III-I): "distributed structured
//! arrays provide the fundamental components for parallel Map-Reduce
//! style computations".
//!
//! The map phase runs on each worker's records; emitted `(key, value)`
//! pairs are *shuffled* directly between workers (alltoallv keyed by a
//! hash of the key — the master never sees the data), then reduced
//! locally and gathered.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::table::{DistTable, Record};
use crate::worker::LocalFn;

fn key_home(key: &str, p: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % p
}

impl<'c> DistTable<'c> {
    /// Full map-reduce: `map_fn` emits `(key, value)` pairs per record;
    /// pairs are shuffled to the key's home worker and folded with
    /// `reduce_fn` (which must be associative and commutative). The final
    /// key/value map is gathered to the master, sorted by key.
    pub fn map_reduce(
        &self,
        map_fn: impl Fn(&Record) -> Vec<(String, f64)> + Send + Sync + 'static,
        reduce_fn: impl Fn(f64, f64) -> f64 + Send + Sync + 'static,
    ) -> Vec<(String, f64)> {
        let table_id = self.id();
        let f: LocalFn = Arc::new(move |scope, _args, _scalars| {
            let p = scope.n_workers();
            // map + local pre-combine (the classic "combiner" optimization)
            let mut combined: HashMap<String, f64> = HashMap::new();
            for rec in &scope.table(table_id).rows {
                for (k, v) in map_fn(rec) {
                    combined
                        .entry(k)
                        .and_modify(|acc| *acc = reduce_fn(*acc, v))
                        .or_insert(v);
                }
            }
            // shuffle by key home
            let mut outgoing: Vec<Vec<(String, f64)>> = (0..p).map(|_| Vec::new()).collect();
            for (k, v) in combined {
                outgoing[key_home(&k, p)].push((k, v));
            }
            let incoming = scope.comm.alltoallv(outgoing);
            let mut reduced: HashMap<String, f64> = HashMap::new();
            for batch in incoming {
                for (k, v) in batch {
                    reduced
                        .entry(k)
                        .and_modify(|acc| *acc = reduce_fn(*acc, v))
                        .or_insert(v);
                }
            }
            // every worker replies with its share
            let mut pairs: Vec<(String, f64)> = reduced.into_iter().collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            scope.reply(comm::encode_to_vec(&pairs));
        });
        let ctx = self.context();
        let fid = ctx.register_local(f);
        ctx.call_local(fid, &[], &[]);
        let replies = ctx.collect_replies_pub();
        let mut out: Vec<(String, f64)> = Vec::new();
        for bytes in replies {
            let pairs: Vec<(String, f64)> =
                comm::decode_from_slice(&bytes).expect("bad shuffle reply");
            out.extend(pairs);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Group-by aggregation: sums `value_col` per distinct value of
    /// `key_col` — the SQL `GROUP BY` shape on top of map-reduce.
    pub fn group_by_sum(&self, key_col: &str, value_col: &str) -> Vec<(String, f64)> {
        let ki = self.schema().index_of(key_col);
        let vi = self.schema().index_of(value_col);
        self.map_reduce(
            move |rec| {
                vec![(
                    match &rec.0[ki] {
                        crate::table::FieldValue::Str(s) => s.clone(),
                        other => format!("{other:?}"),
                    },
                    rec.0[vi].as_f64(),
                )]
            },
            |a, b| a + b,
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::context::OdinContext;
    use crate::table::{FieldType, FieldValue, Record, Schema};

    fn word_records(text: &str) -> (Schema, Vec<Record>) {
        let schema = Schema::new(&[("line", FieldType::Str)]);
        let records = text
            .lines()
            .map(|l| Record(vec![FieldValue::Str(l.to_string())]))
            .collect();
        (schema, records)
    }

    #[test]
    fn word_count() {
        let text = "the quick brown fox\nthe lazy dog\nthe quick dog";
        let ctx = OdinContext::with_workers(3);
        let (schema, records) = word_records(text);
        let t = ctx.table_from_records(schema, records);
        let counts = t.map_reduce(
            |rec| {
                rec.0[0]
                    .as_str()
                    .split_whitespace()
                    .map(|w| (w.to_string(), 1.0))
                    .collect()
            },
            |a, b| a + b,
        );
        let get = |k: &str| {
            counts
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        assert_eq!(get("the"), 3.0);
        assert_eq!(get("quick"), 2.0);
        assert_eq!(get("dog"), 2.0);
        assert_eq!(get("fox"), 1.0);
        assert_eq!(counts.len(), 6);
        // output is sorted by key
        let keys: Vec<&str> = counts.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn word_count_is_worker_count_invariant() {
        let text = "a b a c b a\nb c a";
        let run = |w: usize| {
            let ctx = OdinContext::with_workers(w);
            let (schema, records) = word_records(text);
            let t = ctx.table_from_records(schema, records);
            t.map_reduce(
                |rec| {
                    rec.0[0]
                        .as_str()
                        .split_whitespace()
                        .map(|w| (w.to_string(), 1.0))
                        .collect()
                },
                |a, b| a + b,
            )
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn group_by_sum_aggregates() {
        let ctx = OdinContext::with_workers(2);
        let schema = Schema::new(&[("city", FieldType::Str), ("sales", FieldType::F64)]);
        let records = vec![
            Record(vec![FieldValue::Str("nyc".into()), FieldValue::F64(10.0)]),
            Record(vec![FieldValue::Str("sf".into()), FieldValue::F64(5.0)]),
            Record(vec![FieldValue::Str("nyc".into()), FieldValue::F64(7.5)]),
            Record(vec![FieldValue::Str("austin".into()), FieldValue::F64(3.0)]),
            Record(vec![FieldValue::Str("sf".into()), FieldValue::F64(1.5)]),
        ];
        let t = ctx.table_from_records(schema, records);
        let sums = t.group_by_sum("city", "sales");
        assert_eq!(
            sums,
            vec![
                ("austin".to_string(), 3.0),
                ("nyc".to_string(), 17.5),
                ("sf".to_string(), 6.5),
            ]
        );
    }

    #[test]
    fn max_reduction_instead_of_sum() {
        let ctx = OdinContext::with_workers(3);
        let schema = Schema::new(&[("k", FieldType::Str), ("v", FieldType::F64)]);
        let records: Vec<Record> = (0..20)
            .map(|i| {
                Record(vec![
                    FieldValue::Str(if i % 2 == 0 { "even" } else { "odd" }.into()),
                    FieldValue::F64(i as f64),
                ])
            })
            .collect();
        let t = ctx.table_from_records(schema, records);
        let maxes = t.map_reduce(
            |rec| vec![(rec.0[0].as_str().to_string(), rec.0[1].as_f64())],
            f64::max,
        );
        assert_eq!(
            maxes,
            vec![("even".to_string(), 18.0), ("odd".to_string(), 19.0)]
        );
    }
}

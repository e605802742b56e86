//! Distributed structured (tabular) data (§III-I): record arrays built on
//! a schema of typed fields, block-distributed over the workers — "the
//! fundamental components for parallel Map-Reduce style computations".

use std::sync::Arc;

use comm::{CommError, Cursor, Wire};

use crate::context::OdinContext;

/// Field types supported in records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// 64-bit integer.
    I64,
    /// 64-bit float.
    F64,
    /// UTF-8 string.
    Str,
}

/// One field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Integer value.
    I64(i64),
    /// Float value.
    F64(f64),
    /// String value.
    Str(String),
}

impl FieldValue {
    /// The value's type.
    fn field_type(&self) -> FieldType {
        match self {
            FieldValue::I64(_) => FieldType::I64,
            FieldValue::F64(_) => FieldType::F64,
            FieldValue::Str(_) => FieldType::Str,
        }
    }

    /// As f64 (strings are NaN).
    pub fn as_f64(&self) -> f64 {
        match self {
            FieldValue::I64(v) => *v as f64,
            FieldValue::F64(v) => *v,
            FieldValue::Str(_) => f64::NAN,
        }
    }

    /// As &str (panics for numerics).
    pub fn as_str(&self) -> &str {
        match self {
            FieldValue::Str(s) => s,
            other => panic!("expected string field, found {other:?}"),
        }
    }
}

/// A record: one value per schema field.
#[derive(Debug, Clone, PartialEq)]
pub struct Record(pub Vec<FieldValue>);

/// Named, typed columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// `(name, type)` per column.
    pub fields: Vec<(String, FieldType)>,
}

impl Schema {
    /// Build from name/type pairs.
    pub fn new(fields: &[(&str, FieldType)]) -> Self {
        Schema {
            fields: fields.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        }
    }

    /// Column index of `name`.
    pub fn index_of(&self, name: &str) -> usize {
        self.fields
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no column named {name}"))
    }

    /// Check a record against the schema.
    pub fn validate(&self, rec: &Record) {
        assert_eq!(rec.0.len(), self.fields.len(), "record arity mismatch");
        for (v, (name, t)) in rec.0.iter().zip(self.fields.iter()) {
            assert_eq!(v.field_type(), *t, "column {name} type mismatch");
        }
    }
}

/// One worker's segment of a distributed table.
#[derive(Debug, Clone)]
pub struct TableSeg {
    /// Shared schema.
    pub schema: Schema,
    /// Local records.
    pub rows: Vec<Record>,
}

/// Master-side handle to a distributed table.
pub struct DistTable<'c> {
    ctx: &'c OdinContext,
    id: u64,
    schema: Schema,
}

impl Drop for DistTable<'_> {
    fn drop(&mut self) {
        let id = self.id;
        self.ctx.run_spmd(&[], move |scope, _| {
            scope.remove_table(id);
        });
    }
}

impl<'c> DistTable<'c> {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The owning context.
    pub fn context(&self) -> &'c OdinContext {
        self.ctx
    }

    /// Worker-slot id (for custom local functions).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Total number of records: each worker replies its count and the
    /// master adds them.
    pub fn len(&self) -> usize {
        let id = self.id;
        let counts = self
            .ctx
            .gather_local(&[], move |scope, _| scope.table(id).rows.len());
        counts.into_iter().sum()
    }

    /// Whether the table has no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Transform every record (schema-preserving transforms pass the same
    /// schema; otherwise supply the new one).
    pub fn map(
        &self,
        new_schema: Schema,
        f: impl Fn(&Record) -> Record + Send + Sync + 'static,
    ) -> DistTable<'c> {
        let out = self.ctx.alloc_id();
        let src = self.id;
        let schema2 = new_schema.clone();
        self.ctx.run_spmd(&[], move |scope, _| {
            let rows: Vec<Record> = scope.table(src).rows.iter().map(&f).collect();
            for r in &rows {
                schema2.validate(r);
            }
            scope.insert_table(
                out,
                TableSeg {
                    schema: schema2.clone(),
                    rows,
                },
            );
        });
        DistTable {
            ctx: self.ctx,
            id: out,
            schema: new_schema,
        }
    }

    /// Keep records matching the predicate.
    pub fn filter(&self, pred: impl Fn(&Record) -> bool + Send + Sync + 'static) -> DistTable<'c> {
        let out = self.ctx.alloc_id();
        let src = self.id;
        self.ctx.run_spmd(&[], move |scope, _| {
            let seg = scope.table(src);
            let rows: Vec<Record> = seg.rows.iter().filter(|r| pred(r)).cloned().collect();
            let schema = seg.schema.clone();
            scope.insert_table(out, TableSeg { schema, rows });
        });
        DistTable {
            ctx: self.ctx,
            id: out,
            schema: self.schema.clone(),
        }
    }

    /// Gather every record to the master, in worker order.
    pub fn collect(&self) -> Vec<Record> {
        let id = self.id;
        let rows = self
            .ctx
            .gather_local(&[], move |scope, _| scope.table(id).rows.clone());
        rows.concat()
    }
}

impl OdinContext {
    /// Scatter records into a block-distributed table.
    pub fn table_from_records(&self, schema: Schema, records: Vec<Record>) -> DistTable<'_> {
        for r in &records {
            schema.validate(r);
        }
        let id = self.alloc_id();
        let shared = Arc::new(records);
        let schema2 = schema.clone();
        self.run_spmd(&[], move |scope, _| {
            let p = scope.n_workers();
            let r = scope.rank();
            let n = shared.len();
            let per = n / p;
            let rem = n % p;
            let start = r * per + r.min(rem);
            let count = per + usize::from(r < rem);
            let rows = shared[start..start + count].to_vec();
            scope.insert_table(
                id,
                TableSeg {
                    schema: schema2.clone(),
                    rows,
                },
            );
        });
        DistTable {
            ctx: self,
            id,
            schema,
        }
    }
}

// ---- Wire impls ------------------------------------------------------------

impl Wire for FieldValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            FieldValue::I64(v) => {
                buf.push(0);
                v.encode(buf);
            }
            FieldValue::F64(v) => {
                buf.push(1);
                v.encode(buf);
            }
            FieldValue::Str(s) => {
                buf.push(2);
                s.encode(buf);
            }
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match u8::decode(cur)? {
            0 => Ok(FieldValue::I64(i64::decode(cur)?)),
            1 => Ok(FieldValue::F64(f64::decode(cur)?)),
            2 => Ok(FieldValue::Str(String::decode(cur)?)),
            b => Err(CommError::Decode(format!("bad field byte {b}"))),
        }
    }
}

impl Wire for Record {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok(Record(Vec::decode(cur)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people_schema() -> Schema {
        Schema::new(&[
            ("name", FieldType::Str),
            ("age", FieldType::I64),
            ("score", FieldType::F64),
        ])
    }

    fn people() -> Vec<Record> {
        vec![
            Record(vec![
                FieldValue::Str("ada".into()),
                FieldValue::I64(36),
                FieldValue::F64(9.5),
            ]),
            Record(vec![
                FieldValue::Str("grace".into()),
                FieldValue::I64(45),
                FieldValue::F64(8.0),
            ]),
            Record(vec![
                FieldValue::Str("alan".into()),
                FieldValue::I64(41),
                FieldValue::F64(7.5),
            ]),
            Record(vec![
                FieldValue::Str("edsger".into()),
                FieldValue::I64(39),
                FieldValue::F64(6.0),
            ]),
            Record(vec![
                FieldValue::Str("barbara".into()),
                FieldValue::I64(28),
                FieldValue::F64(9.9),
            ]),
        ]
    }

    #[test]
    fn scatter_len_collect_roundtrip() {
        let ctx = OdinContext::with_workers(3);
        let t = ctx.table_from_records(people_schema(), people());
        assert_eq!(t.len(), 5);
        let got = t.collect();
        assert_eq!(got, people()); // block scatter preserves order
    }

    #[test]
    fn filter_selects_matching_records() {
        let ctx = OdinContext::with_workers(2);
        let t = ctx.table_from_records(people_schema(), people());
        let idx = t.schema().index_of("age");
        let over40 = t.filter(move |r| matches!(r.0[idx], FieldValue::I64(a) if a > 40));
        assert_eq!(over40.len(), 2);
        let names: Vec<String> = over40
            .collect()
            .into_iter()
            .map(|r| r.0[0].as_str().to_string())
            .collect();
        assert_eq!(names, vec!["grace", "alan"]);
    }

    #[test]
    fn map_changes_schema() {
        let ctx = OdinContext::with_workers(2);
        let t = ctx.table_from_records(people_schema(), people());
        let out_schema = Schema::new(&[("name", FieldType::Str), ("age2", FieldType::I64)]);
        let doubled = t.map(out_schema, |r| {
            let age = match r.0[1] {
                FieldValue::I64(a) => a,
                _ => unreachable!(),
            };
            Record(vec![r.0[0].clone(), FieldValue::I64(age * 2)])
        });
        let rows = doubled.collect();
        assert_eq!(rows[0].0[1], FieldValue::I64(72));
        assert_eq!(doubled.schema().fields.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn schema_validation_rejects_bad_records() {
        let ctx = OdinContext::with_workers(1);
        let _ = ctx.table_from_records(people_schema(), vec![Record(vec![FieldValue::I64(1)])]);
    }

    #[test]
    fn record_wire_roundtrip() {
        let r = Record(vec![
            FieldValue::Str("héllo".into()),
            FieldValue::I64(-42),
            FieldValue::F64(1.25),
        ]);
        let bytes = comm::encode_to_vec(&r);
        let back: Record = comm::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, r);
    }
}

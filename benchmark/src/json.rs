//! A JSON writer just big enough for the result and span files. The
//! repo has no serde; `obs::json::validate` checks the output in tests.

pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // `{}` on f64 prints the shortest text that reads back to the
            // same bits, so a value keeps all its digits. JSON has no
            // NaN/inf; callers reject those before they get here.
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => Json::Null.write(out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_text(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_validates_under_the_repo_parser() {
        let doc = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "name",
                Json::str("quote \" slash \\ tab \t nl \n ctl \u{1} é"),
            ),
            ("value", Json::Num(1.2034e-7)),
            ("nan", Json::Num(f64::NAN)),
            (
                "list",
                Json::Arr(vec![Json::Num(-0.5), Json::Int(0), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = doc.to_text();
        hpc_framework::obs::json::validate(&text).expect("writer must emit valid JSON");
        assert!(text.contains("\"value\": 0.00000012034"));
        assert!(text.contains("\"nan\": null"));
    }

    #[test]
    fn numbers_keep_all_digits() {
        let x = 0.1f64 + 0.2;
        let text = Json::Num(x).to_text();
        assert_eq!(text.parse::<f64>().unwrap().to_bits(), x.to_bits());
    }
}

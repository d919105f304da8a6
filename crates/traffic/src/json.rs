//! The flat JSON-line codec every worker, journal and wire protocol in the
//! suite speaks: one object per line, string / number / bool / null values
//! only. Nested documents travel as escaped string values.

use std::collections::BTreeMap;

/// Escapes a string for embedding in a flat JSON line.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON string token (quoted and escaped).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Reverses [`json_escape`]; `None` on a malformed escape.
pub fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Parses a flat JSON object (string / number / bool / null values only)
/// into raw `key -> value` pairs; string values are unescaped, everything
/// else kept as its bare token.
pub fn parse_flat_json(s: &str) -> Option<BTreeMap<String, String>> {
    let s = s.trim();
    let body = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = BTreeMap::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let key_end = rest.find('"')?;
        let key = rest[..key_end].to_owned();
        rest = rest[key_end + 1..].trim_start().strip_prefix(':')?.trim_start();
        let value;
        if let Some(after) = rest.strip_prefix('"') {
            // A string value: scan for the first unescaped quote.
            let mut end = None;
            let mut escaped = false;
            for (i, c) in after.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
            }
            let end = end?;
            value = json_unescape(&after[..end])?;
            rest = after[end + 1..].trim_start();
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            value = rest[..end].trim().to_owned();
            rest = &rest[end..];
        }
        fields.insert(key, value);
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else {
            break;
        }
    }
    Some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_rejects_malformed_documents() {
        assert!(parse_flat_json("{\"a\":1}").is_some());
        assert!(parse_flat_json("not json").is_none());
        assert!(parse_flat_json("{\"a\":\"unterminated}").is_none());
        assert!(parse_flat_json("{\"a\"}").is_none());
        let fields = parse_flat_json("{\"s\":\"a\\\"b\",\"n\":3,\"b\":true,\"z\":null}")
            .expect("parses");
        assert_eq!(fields["s"], "a\"b");
        assert_eq!(fields["n"], "3");
        assert_eq!(fields["b"], "true");
        assert_eq!(fields["z"], "null");
    }
}

//! One simulation as plain data. A design point is a [`SimSpec`] with an
//! id and a `disco-serve` job is one with a name: both become a
//! [`SimBuilder`] through [`SimSpec::builder`] and spell their axes with
//! the keys of [`FIELDS`], so a frontier point is a valid queue job.

use disco_compress::SchemeKind;
use disco_core::{CompressionPlacement, DiscoParams, SimBuilder};
use disco_noc::{NocConfig, TopologyChoice};
use disco_workloads::Benchmark;

use crate::json::{json_escape, Json};

/// Every run-defining axis of one full-system simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// NoC topology.
    pub topology: TopologyChoice,
    /// Declared VCs per input port (raised to the topology's
    /// deadlock-freedom minimum when the system is built).
    pub vcs: usize,
    /// Buffer depth per VC, flits.
    pub buffer_depth: usize,
    /// Compression placement.
    pub placement: CompressionPlacement,
    /// Codec.
    pub scheme: SchemeKind,
    /// `CC_th`.
    pub cc_threshold: f64,
    /// `CD_th`.
    pub cd_threshold: f64,
    /// γ (Eq. 1 local coefficient).
    pub gamma: f64,
    /// α (Eq. 2 local coefficient).
    pub alpha: f64,
    /// β (Eq. 2 distance coefficient).
    pub beta: f64,
    /// Workload.
    pub benchmark: Benchmark,
    /// Accesses per core.
    pub trace_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cycle budget (0 = auto).
    pub max_cycles: u64,
    /// Uniform fault rate (> 0 needs `disco-core`'s `faults` feature).
    pub fault_rate: f64,
}

impl Default for SimSpec {
    /// The configuration of [`SimBuilder::new`].
    fn default() -> Self {
        let noc = NocConfig::default();
        let disco = DiscoParams::default();
        SimSpec {
            cols: 4,
            rows: 4,
            topology: TopologyChoice::Mesh,
            vcs: noc.vcs,
            buffer_depth: noc.buffer_depth,
            placement: CompressionPlacement::Disco,
            scheme: SchemeKind::Delta,
            cc_threshold: disco.cc_threshold,
            cd_threshold: disco.cd_threshold,
            gamma: disco.gamma,
            alpha: disco.alpha,
            beta: disco.beta,
            benchmark: Benchmark::Blackscholes,
            trace_len: 10_000,
            seed: 1,
            max_cycles: 0,
            fault_rate: 0.0,
        }
    }
}

impl SimSpec {
    /// The simulator configuration this spec describes.
    pub fn builder(&self) -> SimBuilder {
        SimBuilder::new()
            .mesh(self.cols, self.rows)
            .topology(self.topology)
            .noc(NocConfig {
                vcs: self.vcs,
                buffer_depth: self.buffer_depth,
                ..NocConfig::default()
            })
            .placement(self.placement)
            .scheme(self.scheme)
            .disco_params(self.disco_params())
            .benchmark(self.benchmark)
            .trace_len(self.trace_len)
            .seed(self.seed)
            .max_cycles(self.max_cycles)
            .uniform_faults(self.seed ^ 0xfa17, self.fault_rate)
    }

    /// The DISCO arbitration parameters this spec requests (defaults
    /// for everything it does not carry). Meaningful only when
    /// `placement` is DISCO; harmless otherwise.
    pub fn disco_params(&self) -> DiscoParams {
        DiscoParams {
            cc_threshold: self.cc_threshold,
            cd_threshold: self.cd_threshold,
            gamma: self.gamma,
            alpha: self.alpha,
            beta: self.beta,
            ..DiscoParams::default()
        }
    }

    /// A human-readable configuration label for logs.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/vc{}/d{}/{}/{}",
            self.topology.name(),
            self.placement.name(),
            self.vcs,
            self.buffer_depth,
            self.scheme.name(),
            self.benchmark.name(),
        )
    }

    /// Renders the axes named by `keys`, in that order, as
    /// comma-separated `"key":value` JSON object members. Floats use
    /// Rust's shortest-roundtrip `{:?}`, so [`SimSpec::set`] reads back
    /// the exact bits.
    ///
    /// # Panics
    ///
    /// Panics if a key is not in [`FIELDS`].
    pub fn json_members(&self, keys: &[&str]) -> String {
        keys.iter()
            .map(|&key| {
                let field = field(key).unwrap_or_else(|| panic!("{key} is not a spec key"));
                format!("\"{key}\":{}", (field.write)(self))
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Sets the axis named `key` from a JSON value. An unknown key or a
    /// mistyped or out-of-range value changes nothing and is an error
    /// that completes the sentence "`key` …", e.g. `must be an integer`.
    pub fn set(&mut self, key: &str, value: &Json) -> Result<(), String> {
        let field = field(key).ok_or("is not a spec key")?;
        (field.read)(self, value)
    }
}

/// One axis of [`SimSpec`]: its JSON key — the field's own name — and
/// how its value renders and parses.
pub struct Field {
    /// The key, as queue files and the frontier JSON spell it.
    pub key: &'static str,
    write: fn(&SimSpec) -> String,
    read: fn(&mut SimSpec, &Json) -> Result<(), String>,
}

/// The [`Field`] for `SimSpec::$name`: an enum axis rendered by name,
/// or a value rendered by `$write` and parsed by `$read`.
macro_rules! field {
    ($name:ident: $enum:ident) => {
        Field {
            key: stringify!($name),
            write: |s| quoted(s.$name.name()),
            read: |s, v| one_of(v, &$enum::ALL, $enum::name).map(|x| s.$name = x),
        }
    };
    ($name:ident, $write:path, $read:ident) => {
        Field {
            key: stringify!($name),
            write: |s| $write(&s.$name),
            read: |s, v| $read(v).map(|x| s.$name = x),
        }
    };
}

/// Every axis of [`SimSpec`], in declaration order.
pub static FIELDS: [Field; 17] = [
    field!(cols, ToString::to_string, positive),
    field!(rows, ToString::to_string, positive),
    field!(topology: TopologyChoice),
    field!(vcs, ToString::to_string, positive),
    field!(buffer_depth, ToString::to_string, positive),
    field!(placement: CompressionPlacement),
    field!(scheme: SchemeKind),
    field!(cc_threshold, float, finite),
    field!(cd_threshold, float, finite),
    field!(gamma, float, finite),
    field!(alpha, float, finite),
    field!(beta, float, finite),
    field!(benchmark: Benchmark),
    field!(trace_len, ToString::to_string, positive),
    field!(seed, ToString::to_string, integer),
    field!(max_cycles, ToString::to_string, integer),
    field!(fault_rate, float, non_negative),
];

fn field(key: &str) -> Option<&'static Field> {
    FIELDS.iter().find(|f| f.key == key)
}

pub(crate) fn quoted(name: &str) -> String {
    format!("\"{}\"", json_escape(name))
}

/// Rust's shortest-roundtrip rendering, which parses back bit-exactly.
pub(crate) fn float(x: &f64) -> String {
    format!("{x:?}")
}

fn integer(v: &Json) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| "must be a non-negative integer".into())
}

fn positive(v: &Json) -> Result<usize, String> {
    integer(v)?
        .try_into()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| "must be a positive integer".into())
}

fn finite(v: &Json) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| "must be a finite number".into())
}

fn non_negative(v: &Json) -> Result<f64, String> {
    Some(finite(v)?)
        .filter(|&x| x >= 0.0)
        .ok_or_else(|| "must be a non-negative number".into())
}

/// Case-insensitive lookup of a string value among an enum's variants.
fn one_of<T: Copy>(v: &Json, all: &[T], name: fn(T) -> &'static str) -> Result<T, String> {
    let names = || all.iter().map(|&t| name(t)).collect::<Vec<_>>().join(", ");
    let value = v
        .as_str()
        .ok_or_else(|| format!("must be a string (one of: {})", names()))?;
    all.iter()
        .copied()
        .find(|&t| name(t).eq_ignore_ascii_case(value))
        .ok_or_else(|| format!("{value:?} is unknown (one of: {})", names()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_renders_and_reads_back() {
        let spec = SimSpec {
            topology: TopologyChoice::Torus,
            seed: u64::MAX,
            gamma: 1.0 / 3.0,
            ..SimSpec::default()
        };
        let keys: Vec<&str> = FIELDS.iter().map(|f| f.key).collect();
        let doc = crate::json::parse(&format!("{{{}}}", spec.json_members(&keys)))
            .expect("renders valid JSON");
        let mut back = SimSpec::default();
        for key in &keys {
            back.set(key, doc.get(key).expect("rendered"))
                .expect("reads");
        }
        assert_eq!(back, spec);
    }

    #[test]
    fn mistyped_values_name_the_key() {
        let mut spec = SimSpec::default();
        for (key, bad) in [
            ("seed", "\"7\""),
            ("seed", "1.5"),
            ("max_cycles", "-1"),
            ("fault_rate", "\"0.1\""),
            ("fault_rate", "-0.5"),
            ("vcs", "0"),
            ("scheme", "\"zip\""),
        ] {
            let v = crate::json::parse(bad).expect("valid JSON");
            let err = spec.set(key, &v).expect_err(bad);
            assert!(
                err.starts_with("must") || err.contains("unknown"),
                "{key}={bad}: {err}"
            );
        }
        assert_eq!(spec, SimSpec::default(), "failed sets change nothing");
        assert!(spec.set("sede", &Json::Null).is_err());
    }

    #[test]
    fn default_spec_is_the_default_builder() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let spec = SimSpec {
            cols: 2,
            rows: 2,
            trace_len: 100,
            ..SimSpec::default()
        };
        spec.builder().run().unwrap().write_stats(&mut a).unwrap();
        SimBuilder::new()
            .mesh(2, 2)
            .trace_len(100)
            .run()
            .unwrap()
            .write_stats(&mut b)
            .unwrap();
        assert_eq!(a, b);
    }
}

//! Output checks: the simulated columns of a point, from a
//! [`ScenarioResult`] or a served JSON response, folded into a digest that
//! two runs can compare exactly.

use gnnerator::ScenarioResult;
use gnnerator_serve::Json;

/// The simulated (not timed) columns of one point. Non-finite values are
/// `None`, as the serving layer renders them `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    pub seconds: Option<f64>,
    pub total_cycles: Option<u64>,
    pub dram_bytes: Option<u64>,
    pub baseline_gpu_seconds: Option<f64>,
    pub baseline_hygcn_seconds: Option<f64>,
    pub speedup_vs_gpu: Option<f64>,
    pub speedup_vs_hygcn: Option<f64>,
    pub num_nodes: u64,
    pub num_edges: u64,
}

fn finite(value: Option<f64>) -> Option<f64> {
    value.filter(|v| v.is_finite())
}

impl Columns {
    pub fn of(result: &ScenarioResult) -> Self {
        Self {
            seconds: finite(Some(result.seconds())),
            total_cycles: result.evaluation.total_cycles,
            dram_bytes: result.evaluation.dram_bytes,
            baseline_gpu_seconds: finite(result.baseline_seconds.map(|b| b.gpu)),
            baseline_hygcn_seconds: finite(result.baseline_seconds.map(|b| b.hygcn)),
            speedup_vs_gpu: finite(result.speedup_vs_gpu()),
            speedup_vs_hygcn: finite(result.speedup_vs_hygcn()),
            num_nodes: result.num_nodes as u64,
            num_edges: result.num_edges as u64,
        }
    }

    /// Reads the columns of a served `/simulate` point. `None` if a field
    /// is missing or ill-typed.
    pub fn from_json(point: &Json) -> Option<Self> {
        let f = |key: &str| match point.get(key)? {
            Json::Null => Some(None),
            value => value.as_f64().map(Some),
        };
        let u = |key: &str| match point.get(key)? {
            Json::Null => Some(None),
            value => value.as_u64().map(Some),
        };
        Some(Self {
            seconds: f("seconds")?,
            total_cycles: u("total_cycles")?,
            dram_bytes: u("dram_bytes")?,
            baseline_gpu_seconds: f("baseline_gpu_seconds")?,
            baseline_hygcn_seconds: f("baseline_hygcn_seconds")?,
            speedup_vs_gpu: f("speedup_vs_gpu")?,
            speedup_vs_hygcn: f("speedup_vs_hygcn")?,
            num_nodes: u("num_nodes")??,
            num_edges: u("num_edges")??,
        })
    }

    /// FNV-1a over every column's exact bits.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv::default();
        for value in [
            self.seconds,
            self.baseline_gpu_seconds,
            self.baseline_hygcn_seconds,
            self.speedup_vs_gpu,
            self.speedup_vs_hygcn,
        ] {
            hash.option(value.map(f64::to_bits));
        }
        hash.option(self.total_cycles);
        hash.option(self.dram_bytes);
        hash.option(Some(self.num_nodes));
        hash.option(Some(self.num_edges));
        hash.0
    }
}

/// One digest over a sequence of point digests, in order.
pub fn combine(digests: &[u64]) -> u64 {
    let mut hash = Fnv::default();
    for &digest in digests {
        hash.option(Some(digest));
    }
    hash.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn option(&mut self, value: Option<u64>) {
        match value {
            None => self.bytes(&[0]),
            Some(v) => {
                self.bytes(&[1]);
                self.bytes(&v.to_le_bytes());
            }
        }
    }
}

/// Renders a digest the way child processes report it.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses a digest rendered by [`hex`].
pub fn parse_hex(text: &str) -> Option<u64> {
    u64::from_str_radix(text, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_json_round_trips_to_the_same_digest() {
        let columns = Columns {
            seconds: Some(1.234_567_890_123e-5),
            total_cycles: Some(12_345),
            dram_bytes: None,
            baseline_gpu_seconds: Some(0.1 + 0.2),
            baseline_hygcn_seconds: None,
            speedup_vs_gpu: Some(3.0),
            speedup_vs_hygcn: None,
            num_nodes: 7,
            num_edges: 9,
        };
        let text = format!(
            "{{\"seconds\": {}, \"total_cycles\": 12345, \"dram_bytes\": null, \
             \"baseline_gpu_seconds\": {}, \"baseline_hygcn_seconds\": null, \
             \"speedup_vs_gpu\": 3, \"speedup_vs_hygcn\": null, \"num_nodes\": 7, \"num_edges\": 9}}",
            1.234_567_890_123e-5,
            0.1 + 0.2
        );
        let parsed = Columns::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, columns);
        assert_eq!(parsed.digest(), columns.digest());
        let mut moved = columns.clone();
        moved.total_cycles = Some(12_346);
        assert_ne!(moved.digest(), columns.digest());
        assert_eq!(parse_hex(&hex(columns.digest())), Some(columns.digest()));
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
    }
}
